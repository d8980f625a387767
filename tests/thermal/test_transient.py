"""Tests for the transient thermal solver."""

import numpy as np
import pytest

from repro.floorplan.planar import planar_floorplan
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import planar_stack
from repro.thermal.transient import (
    ConstantPower,
    PowerSchedule,
    TransientThermalSolver,
)


@pytest.fixture(scope="module")
def steady():
    return ThermalSolver(planar_stack(0.25), planar_floorplan(), nx=24, ny=24)


@pytest.fixture(scope="module")
def transient(steady):
    return TransientThermalSolver(steady, dt_s=5e-3)


def constant_power(steady, watts):
    ny, nx = steady.chip_grid_shape()
    return ConstantPower([np.full((ny, nx), watts / (nx * ny))])


def run(transient, schedule, duration_s):
    (result,) = transient.run_many([schedule], duration_s)
    return result


class PowerDrop(PowerSchedule):
    """``hot`` until ``drop_s``, ``cold`` after."""

    def __init__(self, hot, cold, drop_s):
        self.hot, self.cold, self.drop_s = hot, cold, drop_s

    def power_grids(self, t_s, prev_peak_k):
        return [self.hot] if t_s < self.drop_s else [self.cold]


class TestTransient:
    def test_rejects_bad_dt(self, steady):
        with pytest.raises(ValueError):
            TransientThermalSolver(steady, dt_s=0.0)

    def test_rejects_bad_duration(self, transient, steady):
        with pytest.raises(ValueError):
            run(transient, constant_power(steady, 10.0), 0.0)

    def test_starts_at_ambient(self, transient, steady):
        result = run(transient, constant_power(steady, 60.0), 0.01)
        # After one or two steps the rise is still well below steady state.
        steady_peak = steady.solve(
            [np.full(steady.chip_grid_shape(),
                     60.0 / np.prod(steady.chip_grid_shape()))]
        ).peak_temperature
        assert result.peak_k[0] < steady_peak

    def test_monotone_heating_under_constant_power(self, transient, steady):
        result = run(transient, constant_power(steady, 60.0), 0.1)
        diffs = np.diff(result.peak_k)
        assert (diffs >= -1e-9).all()

    def test_converges_to_steady_state(self, steady, transient):
        ny, nx = steady.chip_grid_shape()
        grid = np.full((ny, nx), 60.0 / (nx * ny))
        steady_result = steady.solve([grid])
        # Long integration: seconds of wall-clock time in model units.
        result = run(transient, ConstantPower([grid]), 8.0)
        assert result.final_peak == pytest.approx(
            steady_result.peak_temperature, abs=1.5
        )

    def test_zero_power_stays_ambient(self, transient, steady):
        result = run(transient, constant_power(steady, 0.0), 0.05)
        assert result.final_peak == pytest.approx(steady.stack.ambient_k, abs=1e-6)

    def test_cooling_after_power_drop(self, steady, transient):
        ny, nx = steady.chip_grid_shape()
        hot = np.full((ny, nx), 80.0 / (nx * ny))
        cold = np.zeros((ny, nx))
        result = run(transient, PowerDrop(hot, cold, 0.5), 1.0)
        peak_during = max(p for t, p in zip(result.times_s, result.peak_k) if t <= 0.5)
        assert result.final_peak < peak_during

    def test_time_to_reach(self, transient, steady):
        result = run(transient, constant_power(steady, 80.0), 0.5)
        threshold = (result.peak_k[0] + result.peak_k[-1]) / 2
        crossing = result.time_to_reach(threshold)
        assert crossing is not None
        assert 0 < crossing <= 0.5
        assert result.time_to_reach(1e6) is None

    def test_final_layer_grids_shape(self, transient, steady):
        result = run(transient, constant_power(steady, 10.0), 0.02)
        assert len(result.final_layer_temps) == len(steady.stack.layers)
        assert result.final_layer_temps[0].shape == (steady.ny, steady.nx)
