"""Figure 10: thermal maps of the three processors.

Paper targets: 2D worst case 360 K at the scheduler; 3D without herding
+17 K; 3D with Thermal Herding +12 K (29% of the increase removed); with
a fixed app the ROB can end up cooler than planar.
"""

from benchmarks.conftest import emit
from repro.experiments.figure10 import run_figure10


def test_bench_figure10(benchmark, context):
    result = benchmark.pedantic(run_figure10, args=(context,), rounds=1, iterations=1)

    lines = [result.format()]
    for label in ("Base", "3D-noTH", "3D"):
        _, thermal = result.worst_case[label]
        lines.append(f"\nhottest blocks, {label}:")
        hottest = sorted(thermal.block_peak.items(), key=lambda kv: -kv[1])[:5]
        lines.extend(f"  {name:<26s} die {die}  {temp:6.1f} K"
                     for (name, die), temp in hottest)
    emit("Figure 10 — thermals", "\n".join(lines))

    # Temperature ordering and magnitudes (shape).
    assert 340.0 <= result.peak_2d <= 385.0
    assert 5.0 <= result.delta_herding <= 30.0
    assert result.delta_herding < result.delta_no_herding <= 60.0
    assert 0.15 <= result.herding_delta_reduction <= 0.75

    # The planar hotspot is the instruction scheduler (allow its immediate
    # floorplan neighbours at coarse grid resolutions — the paper's map is
    # block-level and the scheduler/rename/RF row forms one hot region).
    name, _die, _t = result.worst_case["Base"][1].hottest_block()
    block = name.split(".")[-1]
    assert block in ("scheduler", "rename", "register_file"), name
