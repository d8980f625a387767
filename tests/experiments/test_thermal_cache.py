"""On-disk caching of thermal results (geometry + power-grid keyed)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.cache import ResultCache, thermal_key
from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.floorplan.stacked import stacked_floorplan
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import stacked_3d_stack

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm",),
    thermal_grid=16,
)


def _solver():
    return ThermalSolver(stacked_3d_stack(0.25), stacked_floorplan(), nx=16, ny=16)


def _grids(solver, seed=3):
    ny, nx = solver.chip_grid_shape()
    rng = np.random.default_rng(seed)
    return [rng.random((ny, nx)) for _ in range(solver.floorplan.dies)]


class TestThermalDiskCache:
    def test_warm_context_serves_from_disk(self, tmp_path):
        solver = _solver()
        grids = _grids(solver)

        cold = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        first = cold.solve_thermal_groups([(solver, [grids])])[0][0]
        assert cold.stats.thermal_solved == 1
        assert cold.stats.thermal_disk_hits == 0

        warm = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        second = warm.solve_thermal_groups([(_solver(), [grids])])[0][0]
        assert warm.stats.thermal_solved == 0
        assert warm.stats.thermal_disk_hits == 1
        assert second.peak_temperature == pytest.approx(
            first.peak_temperature, abs=0.0
        )
        for a, b in zip(first.layer_temps, second.layer_temps):
            assert np.array_equal(a, b)
        assert second.block_peak == first.block_peak

    def test_key_sensitive_to_power_and_geometry(self, tmp_path):
        solver = _solver()
        grids = _grids(solver)
        base = thermal_key(solver, grids)

        assert thermal_key(_solver(), [g.copy() for g in grids]) == base

        hotter = [g * 1.01 for g in grids]
        assert thermal_key(solver, hotter) != base

        other = ThermalSolver(stacked_3d_stack(0.50), stacked_floorplan(), nx=16, ny=16)
        assert thermal_key(other, grids) != base

    def test_mixed_batch_solves_only_misses(self, tmp_path):
        solver = _solver()
        a, b = _grids(solver, seed=1), _grids(solver, seed=2)

        context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        context.solve_thermal_groups([(solver, [a])])
        assert context.stats.thermal_solved == 1

        results = context.solve_thermal_groups([(solver, [a, b])])[0]
        assert context.stats.thermal_disk_hits == 1
        assert context.stats.thermal_solved == 2
        assert results[0].peak_temperature != results[1].peak_temperature

    def test_uncached_context_still_solves(self):
        context = ExperimentContext(TINY, jobs=1, cache=None)
        solver = _solver()
        results = context.solve_thermal_groups([(solver, [_grids(solver)])])[0]
        assert len(results) == 1
        assert context.stats.thermal_solved == 1
        assert context.stats.thermal_disk_hits == 0
