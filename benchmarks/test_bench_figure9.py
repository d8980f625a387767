"""Figure 9: total power of the three processors.

Paper targets: 90 W planar -> 72.7 W (-19%) 3D without herding ->
64.3 W (-29%) with Thermal Herding; per-app savings 15% (yacr2) to
30% (susan).
"""

from benchmarks.conftest import emit
from repro.experiments.figure9 import run_figure9


def test_bench_figure9(benchmark, context):
    result = benchmark.pedantic(run_figure9, args=(context,), rounds=1, iterations=1)

    lines = [result.format(), "", "per-module power (mpeg2, per core):"]
    for label, breakdown in (("planar", result.base), ("3D-TH", result.herding)):
        top = sorted(breakdown.modules.items(), key=lambda kv: -kv[1].watts)[:6]
        row = ", ".join(f"{n}={m.watts:.2f}W" for n, m in top)
        lines.append(f"  {label}: {row}")
    emit("Figure 9 — power", "\n".join(lines))

    assert abs(result.base_chip_watts - 90.0) < 0.5
    assert 0.10 <= result.no_herding_saving <= 0.30
    assert 0.20 <= result.herding_saving <= 0.40
    assert result.herding_saving > result.no_herding_saving

    _, min_saving = result.min_saving
    _, max_saving = result.max_saving
    assert 0.05 <= min_saving <= max_saving <= 0.45
