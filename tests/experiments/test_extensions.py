"""Tests for the extension experiments (DVFS, roadmap, report)."""

import pytest

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.dvfs import run_dvfs
from repro.experiments.report import generate_report
from repro.experiments.roadmap import STAGES, run_roadmap

TINY = ExperimentSettings(
    trace_length=5_000,
    warmup=1_500,
    benchmarks=("mpeg2", "mcf"),
    thermal_grid=36,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(TINY)


class TestDVFS:
    @pytest.fixture(scope="class")
    def result(self, context):
        return run_dvfs(context, steps=3)

    def test_endpoints(self, result, context):
        assert result.points[0].clock_ghz == pytest.approx(
            context.configs["Base"].clock_ghz
        )
        assert result.points[-1].clock_ghz == pytest.approx(
            context.configs["3D"].clock_ghz
        )

    def test_power_monotone_in_frequency(self, result):
        watts = [p.chip_watts for p in result.points]
        assert watts == sorted(watts)

    def test_temperature_monotone_in_frequency(self, result):
        peaks = [p.peak_k for p in result.points]
        assert peaks == sorted(peaks)

    def test_performance_monotone(self, result):
        perf = [p.ipns for p in result.points]
        assert perf == sorted(perf)

    def test_envelope_point_beats_planar(self, result):
        best = result.best_within_planar_envelope()
        assert best is not None
        assert best.ipns > result.planar_ipns
        assert best.peak_k <= result.planar_peak_k

    def test_rejects_bad_steps(self, context):
        with pytest.raises(ValueError):
            run_dvfs(context, steps=1)

    def test_format(self, result):
        assert "DVFS" in result.format()


class TestRoadmap:
    @pytest.fixture(scope="class")
    def result(self, context):
        return run_roadmap(context)

    def test_all_stages(self, result):
        assert set(result.speedup) == set(STAGES)

    def test_planar_is_unity(self, result):
        assert result.speedup["planar"] == pytest.approx(1.0)

    def test_stages_monotone(self, result):
        assert (result.speedup["planar"]
                <= result.speedup["stacked-l2"] + 1e-9)
        assert (result.speedup["stacked-l2"]
                <= result.speedup["stacked-cache+"] + 1e-9)
        assert (result.speedup["stacked-cache+"]
                < result.speedup["3d-cores"])

    def test_full_3d_captures_most_benefit(self, result):
        """Section 2.2: stacked caches alone leave most of the gain."""
        cache_gain = result.speedup["stacked-cache+"] - 1.0
        full_gain = result.speedup["3d-cores"] - 1.0
        assert full_gain > 2 * cache_gain

    def test_format(self, result):
        assert "roadmap" in result.format()


class TestReport:
    def test_generates_markdown(self, context):
        text = generate_report(context)
        assert text.startswith("# Thermal Herding reproduction")
        for heading in ("Table 2", "Figure 8", "Figure 9", "Figure 10",
                        "iso-power", "width prediction", "DVFS", "roadmap"):
            assert heading in text
        assert "| quantity | paper | this repo |" in text
