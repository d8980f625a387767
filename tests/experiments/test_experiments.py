"""Tests for the per-figure experiment harnesses (small settings)."""

import pytest

from repro.experiments.cache import simulation_key
from repro.experiments.context import (
    ExperimentContext,
    ExperimentSettings,
    _all_configurations,
)
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.power_density import run_power_density
from repro.experiments.table2 import run_table2
from repro.experiments.width_stats import run_width_stats

SMALL = ExperimentSettings(
    trace_length=6_000,
    warmup=2_000,
    benchmarks=("mpeg2", "yacr2", "susan", "mcf"),
    thermal_grid=40,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(SMALL)


class TestContext:
    def test_trace_cached(self, context):
        assert context.trace("mpeg2") is context.trace("mpeg2")

    def test_run_cached(self, context):
        assert context.run("mpeg2", "Base") is context.run("mpeg2", "Base")

    def test_unknown_config(self, context):
        with pytest.raises(KeyError):
            context.run("mpeg2", "Turbo")

    def test_configs_include_no_th_variant(self, context):
        assert "3D-noTH" in context.configs
        assert not context.configs["3D-noTH"].thermal_herding
        assert context.configs["3D"].thermal_herding

    def test_power_model_calibrated_once(self, context):
        assert context.power_model() is context.power_model()

    def test_all_configurations_is_a_fresh_dict_each_call(self, context):
        first, second = _all_configurations(), _all_configurations()
        assert first == second == context.configs
        assert first is not second and first is not context.configs
        first["extra"] = first["3D"]
        assert "extra" not in _all_configurations()
        assert "extra" not in context.configs

    def test_power_and_keys_memoized_per_pair(self, context):
        assert context.power("mpeg2", "3D") is context.power("mpeg2", "3D")
        config = context.configs["3D"]
        key = context._cache_key("mpeg2", config)
        assert context._cache_key("mpeg2", config) is key
        assert key == simulation_key("mpeg2", config, SMALL.trace_length,
                                     SMALL.warmup)


class TestTable2:
    def test_headline_numbers(self):
        result = run_table2()
        assert result.wakeup_improvement == pytest.approx(0.32, abs=0.04)
        assert result.alu_bypass_improvement == pytest.approx(0.36, abs=0.04)
        assert 0.40 <= result.frequency_gain <= 0.55

    def test_format(self):
        text = run_table2().format()
        assert "Table 2" in text
        assert "GHz" in text


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self, context):
        return run_figure8(context)

    def test_all_benchmarks_covered(self, result):
        assert set(result.speedup) == set(SMALL.benchmarks)

    def test_speedups_in_band(self, result):
        for name, speedup in result.speedup.items():
            assert 1.0 <= speedup <= 1.9, name

    def test_memory_bound_apps_slowest(self, result):
        assert result.speedup["mcf"] < result.speedup["susan"]
        assert result.speedup["yacr2"] < result.speedup["susan"]

    def test_fast_ipc_below_base(self, result):
        for name in result.ipc:
            assert result.ipc[name]["Fast"] <= result.ipc[name]["Base"] + 1e-9

    def test_pipe_ipc_at_least_base(self, result):
        for name in result.ipc:
            assert result.ipc[name]["Pipe"] >= result.ipc[name]["Base"] - 1e-9

    def test_class_means_present(self, result):
        assert result.class_speedup
        assert result.mean_of_means_speedup > 1.0

    def test_format(self, result):
        text = result.format()
        assert "M-of-M" in text


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self, context):
        return run_figure9(context)

    def test_baseline_90w(self, result):
        assert result.base_chip_watts == pytest.approx(90.0, rel=1e-6)

    def test_power_ordering(self, result):
        assert result.herding_chip_watts < result.no_herding_chip_watts < result.base_chip_watts

    def test_savings_bands(self, result):
        """Paper: -19% without herding, -29% with herding."""
        assert 0.10 <= result.no_herding_saving <= 0.30
        assert 0.20 <= result.herding_saving <= 0.40

    def test_per_benchmark_savings_positive(self, result):
        for name, (w2d, w3d, saving) in result.per_benchmark.items():
            assert w3d < w2d, name
            assert 0.05 < saving < 0.45, name

    def test_format(self, result):
        assert "Figure 9" in result.format()


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self, context):
        return run_figure10(context, candidates=["mpeg2", "yacr2", "susan"])

    def test_temperature_ordering(self, result):
        """2D < 3D with herding < 3D without herding."""
        assert result.delta_no_herding > 0
        assert result.delta_herding > 0
        assert result.delta_herding < result.delta_no_herding

    def test_2d_peak_in_band(self, result):
        """Paper: 360 K planar worst case (wide band at smoke settings)."""
        assert 340.0 <= result.peak_2d <= 390.0

    def test_herding_reduction_positive(self, result):
        assert 0.1 <= result.herding_delta_reduction <= 0.8

    def test_fixed_app_maps_present(self, result):
        assert set(result.fixed_app) == {"Base", "3D-noTH", "3D"}

    def test_format(self, result):
        assert "Figure 10" in result.format()


class TestPowerDensity:
    def test_iso_power_much_hotter(self, context):
        result = run_power_density(context)
        # Paper: +58 K at 4x density.
        assert 20.0 <= result.delta_k <= 80.0
        assert result.iso_watts == pytest.approx(result.planar_watts, rel=1e-6)

    def test_format(self, context):
        assert "iso-power" in run_power_density(context).format()


class TestWidthStats:
    def test_accuracy_near_97(self, context):
        result = run_width_stats(context)
        # Paper: 97% of all fetched instructions.
        assert result.mean_all_inst_accuracy >= 0.93

    def test_per_benchmark_entries(self, context):
        result = run_width_stats(context)
        assert set(result.all_inst_accuracy) == set(SMALL.benchmarks)

    def test_format(self, context):
        assert "accuracy" in run_width_stats(context).format()
