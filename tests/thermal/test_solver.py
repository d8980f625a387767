"""Tests for the steady-state thermal solver (physics invariants)."""

import numpy as np
import pytest

from repro.floorplan.planar import planar_floorplan
from repro.floorplan.stacked import stacked_floorplan
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import planar_stack, stacked_3d_stack


@pytest.fixture(scope="module")
def planar_solver():
    return ThermalSolver(planar_stack(0.25), planar_floorplan(), nx=32, ny=32)


@pytest.fixture(scope="module")
def stacked_solver():
    return ThermalSolver(stacked_3d_stack(0.25), stacked_floorplan(), nx=32, ny=32)


def uniform_grids(solver, total_watts, dies=1):
    ny, nx = solver.chip_grid_shape()
    per_die = total_watts / dies
    return [np.full((ny, nx), per_die / (nx * ny)) for _ in range(dies)]


class TestPhysicsInvariants:
    def test_zero_power_gives_ambient(self, planar_solver):
        result = planar_solver.solve(uniform_grids(planar_solver, 0.0))
        for grid in result.layer_temps:
            assert np.allclose(grid, planar_solver.stack.ambient_k, atol=1e-6)

    def test_energy_balance(self, planar_solver):
        """Spreader mean rise ~= P x R_conv (all heat exits the sink)."""
        watts = 50.0
        result = planar_solver.solve(uniform_grids(planar_solver, watts))
        spreader_mean = float(result.layer_temps[0].mean())
        expected = planar_solver.stack.ambient_k + watts * planar_solver.stack.convection_k_per_w
        assert spreader_mean == pytest.approx(expected, abs=0.5)

    def test_linearity(self, planar_solver):
        """Doubling power doubles the temperature rise (pure conduction)."""
        ambient = planar_solver.stack.ambient_k
        r1 = planar_solver.solve(uniform_grids(planar_solver, 30.0))
        r2 = planar_solver.solve(uniform_grids(planar_solver, 60.0))
        rise1 = r1.peak_temperature - ambient
        rise2 = r2.peak_temperature - ambient
        assert rise2 == pytest.approx(2 * rise1, rel=1e-6)

    def test_monotone_in_power(self, planar_solver):
        r1 = planar_solver.solve(uniform_grids(planar_solver, 30.0))
        r2 = planar_solver.solve(uniform_grids(planar_solver, 40.0))
        assert r2.peak_temperature > r1.peak_temperature

    def test_die_hotter_than_spreader(self, planar_solver):
        result = planar_solver.solve(uniform_grids(planar_solver, 60.0))
        die_layer = result.die_layers[0]
        assert result.layer_temps[die_layer].mean() > result.layer_temps[0].mean()

    def test_hotspot_above_uniform(self, planar_solver):
        """Concentrating the same power raises the peak temperature."""
        ny, nx = planar_solver.chip_grid_shape()
        uniform = planar_solver.solve(uniform_grids(planar_solver, 40.0))
        concentrated = np.zeros((ny, nx))
        concentrated[ny // 2, nx // 2] = 40.0
        spot = planar_solver.solve([concentrated])
        assert spot.peak_temperature > uniform.peak_temperature


class TestStackBehaviour:
    def test_lower_dies_hotter(self, stacked_solver):
        """With uniform per-die power, dies farther from the sink run hotter."""
        result = stacked_solver.solve(uniform_grids(stacked_solver, 60.0, dies=4))
        peaks = [result.die_peak(d) for d in range(4)]
        assert peaks[0] < peaks[3]
        assert sorted(peaks) == peaks

    def test_same_power_hotter_in_3d(self, planar_solver, stacked_solver):
        """The iso-power experiment's core effect: 4x density is hotter."""
        watts = 90.0
        planar = planar_solver.solve(uniform_grids(planar_solver, watts))
        stacked = stacked_solver.solve(uniform_grids(stacked_solver, watts, dies=4))
        assert stacked.peak_temperature > planar.peak_temperature

    def test_herded_power_cooler_than_spread(self, stacked_solver):
        """Power on the top die runs cooler than the same power on die 3."""
        ny, nx = stacked_solver.chip_grid_shape()
        zero = np.zeros((ny, nx))
        top_heavy = stacked_solver.solve(
            [np.full((ny, nx), 40.0 / (nx * ny)), zero, zero, zero]
        )
        bottom_heavy = stacked_solver.solve(
            [zero, zero, zero, np.full((ny, nx), 40.0 / (nx * ny))]
        )
        assert top_heavy.peak_temperature < bottom_heavy.peak_temperature


class TestInterface:
    def test_wrong_grid_count(self, stacked_solver):
        with pytest.raises(ValueError):
            stacked_solver.solve(uniform_grids(stacked_solver, 10.0, dies=2))

    def test_wrong_grid_shape(self, planar_solver):
        with pytest.raises(ValueError):
            planar_solver.solve([np.zeros((3, 3))])

    def test_mismatched_floorplan_and_stack(self):
        with pytest.raises(ValueError):
            ThermalSolver(planar_stack(), stacked_floorplan(), 16, 16)

    def test_block_temps_cover_all_blocks(self, planar_solver):
        result = planar_solver.solve(uniform_grids(planar_solver, 50.0))
        plan = planar_solver.floorplan
        assert len(result.block_peak) == len(plan.blocks)
        for key, peak in result.block_peak.items():
            assert result.block_mean[key] <= peak + 1e-9

    def test_hotspot_report(self, planar_solver):
        result = planar_solver.solve(uniform_grids(planar_solver, 50.0))
        name, die, temp = result.hottest_block()
        assert temp == pytest.approx(result.peak_temperature, abs=1.0)
