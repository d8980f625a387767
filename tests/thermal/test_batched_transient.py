"""Batched multi-RHS transient stepping vs the scalar reference loop.

The batched path (`run_many`) must be *byte-identical* to the retained
scalar reference (`run_reference`): identical floating-point addition
order in the RHS assembly and SuperLU's column-independent
back-substitution make this exact, not approximate.
"""

import numpy as np
import pytest

from repro.floorplan import planar_floorplan, stacked_floorplan
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import planar_stack, stacked_3d_stack
from repro.thermal.transient import (
    STEP_FACTORIZATION_STATS,
    PowerSchedule,
    TransientThermalSolver,
    step_matrix_key,
)

GRID = 20
DTS = (2e-3, 5e-3)
DURATION = 0.05


@pytest.fixture(scope="module")
def solvers():
    return {
        "planar": ThermalSolver(planar_stack(), planar_floorplan(),
                                nx=GRID, ny=GRID),
        "3d": ThermalSolver(stacked_3d_stack(), stacked_floorplan(),
                            nx=GRID, ny=GRID),
    }


class Reactive(PowerSchedule):
    """Feedback schedule: halves power once the die peak crosses a bar."""

    def __init__(self, grids, ceiling_k):
        self.grids = grids
        self.ceiling_k = ceiling_k

    def power_grids(self, t_s, prev_peak_k):
        if prev_peak_k >= self.ceiling_k:
            return [g * 0.5 for g in self.grids]
        return self.grids


def _schedules(solver):
    ny, nx = solver.chip_grid_shape()
    layers = len(solver._die_layer_map)
    base = [np.full((ny, nx), 3.0 + i) for i in range(layers)]
    ambient = solver.stack.ambient_k

    def wobble(t):
        return [g * (1.0 + 0.2 * np.sin(40.0 * t)) for g in base]

    return [
        lambda t: base,
        wobble,
        Reactive(base, ambient + 1.0),
    ]


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("kind", ["planar", "3d"])
    @pytest.mark.parametrize("dt_s", DTS)
    def test_run_many_byte_identical(self, solvers, kind, dt_s):
        solver = solvers[kind]
        transient = TransientThermalSolver(solver, dt_s=dt_s)
        batched = transient.run_many(_schedules(solver), DURATION)
        reference = [
            transient.run_reference(schedule, DURATION)
            for schedule in _schedules(solver)
        ]
        for got, want in zip(batched, reference):
            assert got.times_s == want.times_s
            assert got.peak_k == want.peak_k  # exact, not approx
            for a, b in zip(got.final_layer_temps, want.final_layer_temps):
                assert np.array_equal(a, b)

    def test_single_run_uses_batched_path(self, solvers):
        solver = solvers["planar"]
        transient = TransientThermalSolver(solver, dt_s=5e-3)
        schedule, *_ = _schedules(solver)
        solo = transient.run(schedule, DURATION)
        want = transient.run_reference(schedule, DURATION)
        assert solo.peak_k == want.peak_k
        assert all(
            np.array_equal(a, b)
            for a, b in zip(solo.final_layer_temps, want.final_layer_temps)
        )

    def test_vectorized_time_to_reach(self, solvers):
        solver = solvers["planar"]
        transient = TransientThermalSolver(solver, dt_s=5e-3)
        result = transient.run(_schedules(solver)[0], DURATION)
        threshold = (result.peak_k[0] + result.peak_k[-1]) / 2
        want = None
        for t, peak in zip(result.times_s, result.peak_k):
            if peak >= threshold:
                want = t
                break
        assert result.time_to_reach(threshold) == want
        assert result.time_to_reach(1e9) is None


class TestStepCache:
    def test_one_factorization_per_key(self, solvers):
        """Each transient solver factorizes its step matrix once, however
        many runs it steps."""
        solver = solvers["planar"]
        schedule = _schedules(solver)[0]
        before = STEP_FACTORIZATION_STATS.factorizations
        keys = set()
        for dt_s in DTS:
            transient = TransientThermalSolver(solver, dt_s=dt_s)
            for _ in range(3):
                transient.run(schedule, DURATION)
            keys.add(step_matrix_key(solver, dt_s))
        assert len(keys) == len(DTS)
        assert STEP_FACTORIZATION_STATS.factorizations == before + len(keys)
