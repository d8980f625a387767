"""Figure 8: IPC / IPns / speedup for Base, TH, Pipe, Fast, and 3D.

Paper targets: mean speedup 1.47 (min 1.07 mcf, max 1.77 patricia);
SPECfp is the lowest class (+29.5%); Fast alone loses IPC, Pipe alone
gains a little, TH alone is almost free.
"""

from benchmarks.conftest import emit
from repro.experiments.figure8 import run_figure8


def test_bench_figure8(benchmark, context):
    result = benchmark.pedantic(run_figure8, args=(context,), rounds=1, iterations=1)

    lines = [result.format(), "", "per-benchmark speedups:"]
    for name, speedup in sorted(result.speedup.items(), key=lambda kv: kv[1]):
        lines.append(f"  {name:<10s} {speedup:5.2f}x")
    emit("Figure 8 — performance", "\n".join(lines))

    # Shape assertions (the paper's qualitative structure).
    assert 1.15 <= result.mean_of_means_speedup <= 1.60
    assert result.min_speedup >= 1.00
    assert result.max_speedup <= 1.90

    if "SPECfp2000" in result.class_speedup:
        others = [v for k, v in result.class_speedup.items() if k != "SPECfp2000"]
        assert result.class_speedup["SPECfp2000"] <= min(others) + 0.05

    for name in result.ipc:
        assert result.ipc[name]["Fast"] <= result.ipc[name]["Base"] + 1e-9
        assert result.ipc[name]["Pipe"] >= result.ipc[name]["Base"] - 1e-9
        assert result.ipc[name]["TH"] >= 0.93 * result.ipc[name]["Base"]
