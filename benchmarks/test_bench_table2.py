"""Table 2: 2D vs 3D block latencies and the clock frequency derivation.

Paper targets: wakeup-select -32%, ALU+bypass -36%, clock 2.66 GHz ->
3.93 GHz (+47.9%).
"""

from benchmarks.conftest import emit
from repro.experiments.table2 import run_table2


def test_bench_table2(benchmark):
    result = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    emit("Table 2 — block latencies and derived frequencies", result.format())

    assert abs(result.wakeup_improvement - 0.32) < 0.05
    assert abs(result.alu_bypass_improvement - 0.36) < 0.05
    assert abs(result.frequencies.f2d_ghz - 2.66) < 0.10
    assert 0.40 <= result.frequency_gain <= 0.55
