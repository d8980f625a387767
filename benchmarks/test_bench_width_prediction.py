"""Section 3.8: width prediction accuracy and herding effectiveness.

Paper target: 97% of all fetched instructions have their widths
correctly predicted.
"""

from benchmarks.conftest import emit
from repro.experiments.width_stats import run_width_stats


def test_bench_width_prediction(benchmark, context):
    result = benchmark.pedantic(run_width_stats, args=(context,), rounds=1, iterations=1)
    emit("Section 3.8 — width prediction", result.format())

    assert result.mean_all_inst_accuracy >= 0.94
    for name, accuracy in result.all_inst_accuracy.items():
        assert accuracy >= 0.88, name

    # Herding metrics: loads herded in the D-cache, PAM herding present.
    assert result.mean_herding("dcache_herded_loads") >= 0.30
    assert result.mean_herding("pam_herded") >= 0.15
    assert result.mean_herding("scheduler_dies_per_broadcast") <= 2.5
