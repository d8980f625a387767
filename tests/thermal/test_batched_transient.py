"""Batched multi-RHS transient stepping.

Batching is invisible: at the small grid here, each column of
``run_many([s1..sK])`` is *byte-identical* to ``run_many([sk])``
stepped alone, because RHS assembly is column-wise and SuperLU
back-substitutes every column independently; at the report's grid it
moves a run by at most 1e-12 K.  One step of the engine is the implicit-Euler update
``(C/dt + G) T1 = (C/dt) T0 + P``, checked against a system assembled
here from the stack's materials and solved with ``spsolve``.
"""

import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve

from repro.floorplan import planar_floorplan, stacked_floorplan
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import planar_stack, stacked_3d_stack
from repro.thermal.transient import (
    STEP_FACTORIZATION_STATS,
    ConstantPower,
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


class Wobble(PowerSchedule):
    """Time-varying schedule: a sinusoidal swing around a base map."""

    def __init__(self, grids):
        self.grids = grids

    def power_grids(self, t_s, prev_peak_k):
        return [g * (1.0 + 0.2 * np.sin(40.0 * t_s)) for g in self.grids]


def _schedules(solver):
    ny, nx = solver.chip_grid_shape()
    layers = len(solver._die_layer_map)
    base = [np.full((ny, nx), 3.0 + i) for i in range(layers)]
    ambient = solver.stack.ambient_k
    return [ConstantPower(base), Wobble(base), Reactive(base, ambient + 1.0)]


def _assert_same_run(got, want):
    assert got.times_s == want.times_s
    assert got.peak_k == want.peak_k  # exact, not approx
    for a, b in zip(got.final_layer_temps, want.final_layer_temps):
        assert a.tobytes() == b.tobytes()


class TestBatchedEqualsScalar:
    """A batch of K runs equals the same K runs stepped one at a time."""

    @pytest.mark.parametrize("kind", ["planar", "3d"])
    @pytest.mark.parametrize("dt_s", DTS)
    def test_run_many_byte_identical(self, solvers, kind, dt_s):
        solver = solvers[kind]
        transient = TransientThermalSolver(solver, dt_s=dt_s)
        batched = transient.run_many(_schedules(solver), DURATION)
        assert len(batched) == 3
        for k, got in enumerate(batched):
            (alone,) = transient.run_many([_schedules(solver)[k]], DURATION)
            _assert_same_run(got, alone)

    def test_vectorized_time_to_reach(self, solvers):
        solver = solvers["planar"]
        transient = TransientThermalSolver(solver, dt_s=5e-3)
        (result,) = transient.run_many(_schedules(solver)[:1], DURATION)
        threshold = (result.peak_k[0] + result.peak_k[-1]) / 2
        want = None
        for t, peak in zip(result.times_s, result.peak_k):
            if peak >= threshold:
                want = t
                break
        assert result.time_to_reach(threshold) == want
        assert result.time_to_reach(1e9) is None


class TestBatchingAtTheReportGrid:
    """At the report's grid (48) and time step, SuperLU's blocked
    multi-RHS kernel may move a run by ~1e-13 K with the batch it steps
    in (on the 3D stack, a batch of 1, 2 or 3 against one of 5).  A
    cached transient run may come from another batch size, since
    ``transient_key`` ignores it, so the difference stays bounded."""

    @pytest.mark.parametrize("kind", ["planar", "3d"])
    def test_batch_size_moves_a_run_by_at_most_1e_12_k(self, kind):
        stack, floorplan = {
            "planar": (planar_stack, planar_floorplan),
            "3d": (stacked_3d_stack, stacked_floorplan),
        }[kind]
        solver = ThermalSolver(stack(), floorplan(), nx=48, ny=48)
        ny, nx = solver.chip_grid_shape()
        rng = np.random.default_rng(1)
        schedules = [
            ConstantPower([rng.uniform(0.0, 0.2, (ny, nx))
                           for _ in range(solver.stack.die_count)])
            for _ in range(5)
        ]
        transient = TransientThermalSolver(solver, dt_s=20e-3)
        want = transient.run_many(schedules, 2.0)[0]
        for size in range(1, 5):
            got = transient.run_many(schedules[:size], 2.0)[0]
            assert got.times_s == want.times_s
            assert np.abs(np.subtract(got.peak_k, want.peak_k)).max() <= 1e-12
            for a, b in zip(got.final_layer_temps, want.final_layer_temps):
                assert np.abs(a - b).max() <= 1e-12


class TestImplicitEulerStep:
    @pytest.mark.parametrize("kind", ["planar", "3d"])
    def test_one_step_matches_spsolve(self, solvers, kind):
        """One step solves ``(C/dt + G) T1 = (C/dt) T0 + P``, with ``C``,
        the chip-window power and the sink's ambient source built here
        from the stack and floorplan, not taken from the engine."""
        solver = solvers[kind]
        dt_s = 5e-3
        start_k = solver.stack.ambient_k + 7.0
        ny, nx = solver.chip_grid_shape()
        rng = np.random.default_rng(3)
        grids = [rng.uniform(0.0, 0.2, (ny, nx))
                 for _ in range(solver.stack.die_count)]

        (result,) = TransientThermalSolver(solver, dt_s=dt_s).run_many(
            [ConstantPower(grids)], dt_s, initial_k=start_k)

        layers = solver.stack.layers
        cells = solver.nx * solver.ny
        dx = solver.spreader_w_mm * 1e-3 / solver.nx
        dy = solver.spreader_h_mm * 1e-3 / solver.ny
        capacity = np.repeat(
            [layer.material.heat_capacity_j_m3k * dx * dy * layer.thickness_m
             for layer in layers], cells)
        power = np.zeros((len(layers), solver.ny, solver.nx))
        x0, y0 = solver._chip_x0, solver._chip_y0
        for l, layer in enumerate(layers):
            if layer.power_die is not None:
                power[l, y0:y0 + ny, x0:x0 + nx] = grids[layer.power_die]
        spreader_area = solver.spreader_w_mm * solver.spreader_h_mm * 1e-6
        sink_per_cell = (dx * dy / spreader_area
                         / solver.stack.convection_k_per_w)
        power[0] += sink_per_cell * solver.stack.ambient_k
        history = capacity / dt_s
        want = spsolve((diags(history) + solver.conductance_matrix).tocsc(),
                       history * start_k + power.ravel())

        got = np.concatenate([t.ravel() for t in result.final_layer_temps])
        assert np.abs(got - want).max() < 1e-9
        die_cells = want.reshape(len(layers), cells)[
            [l for l, layer in enumerate(layers) if layer.power_die is not None]]
        assert result.peak_k == [pytest.approx(die_cells.max(), abs=1e-9)]
        assert result.times_s == [dt_s]


class TestStepCache:
    def test_one_factorization_per_key(self, solvers):
        """Each transient solver factorizes its step matrix once, however
        many runs it steps."""
        solver = solvers["planar"]
        schedules = _schedules(solver)[:1]
        before = STEP_FACTORIZATION_STATS.factorizations
        keys = set()
        for dt_s in DTS:
            transient = TransientThermalSolver(solver, dt_s=dt_s)
            for _ in range(3):
                transient.run_many(schedules, DURATION)
            keys.add(step_matrix_key(solver, dt_s))
        assert len(keys) == len(DTS)
        assert STEP_FACTORIZATION_STATS.factorizations == before + len(keys)
