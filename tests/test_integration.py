"""End-to-end integration tests across the whole pipeline.

These check the cross-package contracts: trace -> timing -> activity ->
power -> thermal, and the paper's qualitative orderings at small scale.
"""

import pytest

from repro.core.activity import NUM_DIES
from repro.cpu.config import baseline_config, full_3d_config
from repro.cpu.pipeline import simulate
from repro.experiments.context import CONFIG_STACKS
from repro.floorplan import planar_floorplan, stacked_floorplan
from repro.power.model import PowerModel, StackKind, calibrate_activity_scale
from repro.thermal import build_power_map, planar_stack, rasterize, stacked_3d_stack
from repro.thermal.solver import ThermalSolver
from repro.workloads.suite import generate


@pytest.fixture(scope="module")
def pipeline_artifacts(mpeg2_trace, base_run, full_3d_run):
    scale = calibrate_activity_scale(base_run)
    model = PowerModel(activity_scale=scale)
    return {
        "model": model,
        "p2d": model.evaluate(base_run, StackKind.PLANAR_2D),
        "p3d": model.evaluate(full_3d_run, StackKind.STACKED_3D),
    }


class TestActivityToPowerContract:
    def test_every_activity_module_priced(self, base_run, pipeline_artifacts):
        """Every module the simulator records must map to a block energy."""
        priced = set(pipeline_artifacts["p2d"].modules)
        recorded = {
            name for name, act in base_run.activity.modules().items()
            if act.total and name != "dram"
        }
        assert recorded == priced

    def test_th_activity_also_priced(self, full_3d_run, pipeline_artifacts):
        priced = set(pipeline_artifacts["p3d"].modules)
        recorded = {
            name for name, act in full_3d_run.activity.modules().items()
            if act.total and name != "dram"
        }
        assert recorded == priced


class TestPowerToThermalContract:
    def test_floorplan_covers_power_modules(self, pipeline_artifacts):
        """Every priced module has a floorplan block (or spreads as misc)."""
        plan = stacked_floorplan()
        names = {b.name for b in plan.blocks}
        missing = [
            module for module in pipeline_artifacts["p3d"].modules
            if module != "l2_cache" and f"core0.{module}" not in names
        ]
        assert missing == []

    def test_thermal_chain_runs(self, pipeline_artifacts):
        plan = stacked_floorplan()
        solver = ThermalSolver(stacked_3d_stack(), plan, nx=32, ny=32)
        watts = build_power_map(plan, [pipeline_artifacts["p3d"]] * 2)
        ny, nx = solver.chip_grid_shape()
        result = solver.solve(rasterize(plan, watts, nx, ny))
        assert result.peak_temperature > solver.stack.ambient_k


class TestPaperOrderings:
    def test_speedup_and_power_together(self, base_run, full_3d_run, pipeline_artifacts):
        """The headline: faster AND lower power simultaneously."""
        assert full_3d_run.ipns > base_run.ipns
        assert (pipeline_artifacts["p3d"].total_watts
                < pipeline_artifacts["p2d"].total_watts)

    def test_memory_bound_benchmark_gains_less(self):
        mcf = generate("mcf", length=6000)
        susan = generate("susan", length=6000)
        speedups = {}
        for name, trace in (("mcf", mcf), ("susan", susan)):
            base = simulate(trace, baseline_config(), warmup=2000)
            full = simulate(trace, full_3d_config(), warmup=2000)
            speedups[name] = full.ipns / base.ipns
        assert speedups["mcf"] < speedups["susan"]

    def test_config_stack_map_consistent(self):
        assert CONFIG_STACKS["Base"] is StackKind.PLANAR_2D
        assert CONFIG_STACKS["3D"] is StackKind.STACKED_3D


class TestDieAccounting:
    def test_th_run_herds_activity_upward(self, full_3d_run):
        """Across word-partitioned modules, die 0 sees the most activity."""
        for name in ("register_file", "l1_dcache", "bypass"):
            activity = full_3d_run.activity.module(name)
            assert activity.per_die[0] >= activity.per_die[NUM_DIES - 1], name

    def test_power_follows_herding(self, pipeline_artifacts):
        rf = pipeline_artifacts["p3d"].modules["register_file"]
        assert rf.per_die[0] > rf.per_die[3]
