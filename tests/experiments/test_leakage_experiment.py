"""Tests for the leakage-feedback experiment."""

import pytest

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.leakage import CONFIG_LABELS, run_leakage_feedback

TINY = ExperimentSettings(
    trace_length=5_000,
    warmup=1_500,
    benchmarks=("mpeg2",),
    thermal_grid=36,
)


@pytest.fixture(scope="module")
def result():
    return run_leakage_feedback(ExperimentContext(TINY))


class TestLeakageFeedback:
    def test_all_configs(self, result):
        assert set(result.outcomes) == set(CONFIG_LABELS)

    def test_amplifications_finite_and_positive(self, result):
        for fixed, coupled, amp in result.outcomes.values():
            assert fixed > 300.0
            assert coupled > 300.0
            assert 0.1 < amp < 10.0

    def test_no_herding_amplifies_most(self, result):
        """The hottest design pays the largest leakage tax."""
        assert result.outcomes["3D-noTH"][2] > result.outcomes["3D"][2]
        assert result.outcomes["3D-noTH"][2] > result.outcomes["Base"][2]

    def test_coupling_raises_hot_designs(self, result):
        fixed, coupled, amp = result.outcomes["3D-noTH"]
        if amp > 1.05:
            assert coupled > fixed

    def test_format(self, result):
        text = result.format()
        assert "leakage-temperature feedback" in text
        assert "headroom" in text
