"""Deeper tests for the experiment context's caching and wiring."""

import pytest

from repro.experiments.context import (
    CONFIG_STACKS,
    CORE_COUNT,
    ExperimentContext,
    ExperimentSettings,
    REFERENCE_BENCHMARK,
)
from repro.power.model import StackKind

TINY = ExperimentSettings(
    trace_length=3_000,
    warmup=900,
    benchmarks=("mpeg2", "adpcm"),
    thermal_grid=32,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(TINY)


class TestSettings:
    def test_benchmark_list_explicit(self, context):
        assert context.settings.benchmark_list() == ["mpeg2", "adpcm"]

    def test_benchmark_list_default_is_suite(self):
        from repro.workloads.suite import benchmark_names
        assert ExperimentSettings().benchmark_list() == benchmark_names()

    def test_reference_benchmark_is_peak_power_app(self):
        assert REFERENCE_BENCHMARK == "mpeg2"

    def test_two_cores(self):
        assert CORE_COUNT == 2


class TestCaching:
    def test_solver_cached_per_stack(self, context):
        assert context.solver(StackKind.PLANAR_2D) is context.solver(StackKind.PLANAR_2D)
        assert context.solver(StackKind.PLANAR_2D) is not context.solver(StackKind.STACKED_3D)

    def test_floorplans_match_stack(self, context):
        assert context.floorplan(StackKind.PLANAR_2D).dies == 1
        assert context.floorplan(StackKind.STACKED_3D).dies == 4

    def test_runs_keyed_by_config(self, context):
        base = context.run("adpcm", "Base")
        full = context.run("adpcm", "3D")
        assert base is not full
        assert base.config_name != full.config_name


class TestPowerWiring:
    def test_power_uses_correct_stack(self, context):
        planar = context.power("adpcm", "Base")
        stacked = context.power("adpcm", "3D")
        assert planar.stack is StackKind.PLANAR_2D
        assert stacked.stack is StackKind.STACKED_3D

    def test_chip_power_is_two_cores(self, context):
        per_core = context.power("adpcm", "Base").total_watts
        assert context.chip_power_watts("adpcm", "Base") == pytest.approx(2 * per_core)

    def test_all_config_labels_have_stacks(self, context):
        assert set(context.configs) == set(CONFIG_STACKS)


class TestThermalWiring:
    def test_thermal_runs_both_stacks(self, context):
        planar = context.thermal("adpcm", "Base")
        stacked = context.thermal("adpcm", "3D")
        assert len(planar.die_layers) == 1
        assert len(stacked.die_layers) == 4

    def test_power_scale_scales_temperature(self, context):
        breakdown = context.power("adpcm", "Base")
        cool, hot = context.thermal_grouped({
            StackKind.PLANAR_2D: [([breakdown] * 2, 0.5), ([breakdown] * 2, 1.5)]
        })[StackKind.PLANAR_2D]
        assert hot.peak_temperature > cool.peak_temperature


def test_importing_context_leaves_scipy_sparse_unloaded():
    """The CLI, the context and the thermal solvers import without the
    sparse linear algebra; the first assembly and solve load it."""
    import os
    import subprocess
    import sys

    code = (
        "import sys, numpy as np\n"
        "import repro.cli, repro.thermal.solver, repro.thermal.transient\n"
        "import repro.experiments.context as c\n"
        "assert 'scipy.sparse' not in sys.modules, 'loaded on import'\n"
        "s = c.ExperimentContext(cache=None).solver(c.StackKind.PLANAR_2D)\n"
        "s.solve([np.zeros(s.chip_grid_shape())])\n"
        "assert 'scipy.sparse' in sys.modules\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
