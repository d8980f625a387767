"""Tests for the sensitivity and stacking-order analyses."""

import pytest

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.sensitivity import run_sensitivity
from repro.experiments.stacking_order import run_stacking_order

TINY = ExperimentSettings(
    trace_length=5_000,
    warmup=1_500,
    benchmarks=("mpeg2",),
    thermal_grid=36,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(TINY)


class TestStackingOrder:
    @pytest.fixture(scope="class")
    def result(self, context):
        return run_stacking_order(context)

    def test_orientation_penalty_positive(self, result):
        """Herded power at the bottom of the stack must run hotter."""
        assert result.penalty_k > 0

    def test_magnitudes_sane(self, result):
        assert 330.0 < result.herded_peak_k < 450.0
        assert result.penalty_k < 30.0

    def test_format(self, result):
        assert "stacking-order" in result.format()


class TestSensitivity:
    @pytest.fixture(scope="class")
    def result(self, context):
        return run_sensitivity(context)

    def test_all_parameters_swept(self, result):
        grouped = result.by_parameter()
        assert set(grouped) == {"convection K/W", "TIM W/mK", "via copper fraction"}
        assert all(len(points) == 4 for points in grouped.values())

    def test_worse_sink_is_hotter(self, result):
        points = result.by_parameter()["convection K/W"]
        temps = [p.peak_k for p in sorted(points, key=lambda p: p.value)]
        assert temps == sorted(temps)

    def test_better_tim_is_cooler(self, result):
        points = result.by_parameter()["TIM W/mK"]
        temps = [p.peak_k for p in sorted(points, key=lambda p: p.value)]
        assert temps == sorted(temps, reverse=True)

    def test_more_copper_is_cooler(self, result):
        points = result.by_parameter()["via copper fraction"]
        temps = [p.peak_k for p in sorted(points, key=lambda p: p.value)]
        assert temps == sorted(temps, reverse=True)

    def test_tim_dominates_via_fill(self, result):
        """The paper's phase-change TIM assumption carries the most weight."""
        assert result.spread("TIM W/mK") > result.spread("via copper fraction")

    def test_format(self, result):
        assert "sensitivity" in result.format()
