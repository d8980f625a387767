"""Thermal conductance-matrix assembly, rasterization and per-solver
factorization.

The solver assembles its conductance matrix with whole-layer numpy
arrays.  These tests pin the assembled bytes with digests recorded while
the vectorized assembler was identical to the original per-cell loop,
check the matrix's physical invariants (symmetry, non-positive
couplings, heat conservation away from the convective spreader top),
solve against an independent sparse solve, and check rasterized power
conservation and that each solver factorizes its system once.  A deliberate
discretization change bumps ``THERMAL_MODEL_VERSION`` and re-records
``MATRIX_DIGESTS``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.floorplan.planar import planar_floorplan
from repro.floorplan.stacked import stacked_floorplan
from repro.thermal import power_map as power_map_module
from repro.thermal.power_map import build_power_map, clear_mask_cache, rasterize
from repro.thermal.solver import FACTORIZATION_STATS, ThermalSolver
from repro.thermal.stack import planar_stack, stacked_3d_stack


def _solver_pairs():
    return [
        ThermalSolver(planar_stack(0.25), planar_floorplan(), nx=24, ny=24),
        ThermalSolver(stacked_3d_stack(0.25), stacked_floorplan(), nx=24, ny=24),
        # Non-square grid exercises the x/y index arithmetic separately.
        ThermalSolver(stacked_3d_stack(0.30), stacked_floorplan(), nx=20, ny=28),
    ]


#: sha256 over the CSC ``data``, ``indices`` and ``indptr`` bytes of each
#: :func:`_solver_pairs` geometry's ``_assemble()`` matrix.
MATRIX_DIGESTS = [
    "a69151682cf50982a57fd59d89a5ab156e8d15757d0992c5f24c144d97baac92",
    "7b2d189a0680f7071e45623706ad8db40c8254813c6e93c00c2009c7ab765710",
    "c5ff0fc7294873c5d04269ed3d7f8c1ec1c9fc88f5c502808873aac3e08c80fd",
]


def _matrix_digest(matrix) -> str:
    digest = hashlib.sha256()
    for array in (matrix.data, matrix.indices, matrix.indptr):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestAssemblyEquivalence:
    @pytest.mark.parametrize("index", range(3))
    def test_matrices_identical(self, index):
        """The assembled matrix is byte-identical to the recording."""
        matrix, _ = _solver_pairs()[index]._assemble()
        assert matrix.format == "csc"
        assert _matrix_digest(matrix) == MATRIX_DIGESTS[index]

    @pytest.mark.parametrize("index", range(3))
    def test_matrix_physical_invariants(self, index):
        """Symmetric, couplings <= 0, and each row sums to zero (heat is
        conserved) except on the spreader layer, whose rows keep exactly
        their share of the sink's convective conductance."""
        solver = _solver_pairs()[index]
        matrix, conv_per_cell = solver._assemble()
        assert (matrix != matrix.T).nnz == 0
        coo = matrix.tocoo()
        off_diagonal = coo.data[coo.row != coo.col]
        assert (off_diagonal <= 0.0).all()
        assert (matrix.diagonal() > 0.0).all()

        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        n_cells = solver.nx * solver.ny
        assert solver.stack.layers[0].name == "spreader"
        scale = matrix.diagonal().max()
        np.testing.assert_allclose(row_sums[:n_cells], conv_per_cell,
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(row_sums[n_cells:], 0.0,
                                   rtol=0, atol=1e-12 * scale)
        # The spreader's convective terms add up to the sink conductance.
        assert conv_per_cell * n_cells == pytest.approx(
            1.0 / solver.stack.convection_k_per_w, rel=1e-12)

    @pytest.mark.parametrize("index", range(3))
    def test_temperatures_match_reference(self, index):
        """The factorized solve agrees with an independent sparse solve
        of the same system."""
        solver = _solver_pairs()[index]
        ny, nx = solver.chip_grid_shape()
        dies = solver.floorplan.dies
        rng = np.random.default_rng(17 + index)
        grids = [rng.random((ny, nx)) * 2.0 for _ in range(dies)]

        result = solver.solve(grids)

        from scipy.sparse.linalg import spsolve

        matrix, _ = solver._assemble()
        temps = spsolve(matrix, solver._rhs_for(grids))
        n_cells = solver.nx * solver.ny
        for layer_index, layer in enumerate(result.layer_temps):
            expected = temps[layer_index * n_cells:(layer_index + 1) * n_cells]
            got = layer.ravel()
            assert np.abs(got - expected).max() < 1e-9


class TestRasterizePowerConservation:
    def setup_method(self):
        clear_mask_cache()

    def test_total_power_conserved(self):
        plan = stacked_floorplan()
        watts = build_power_map(plan, [])
        # Synthetic non-uniform powers, including fractional-overlap blocks.
        for index, key in enumerate(sorted(watts)):
            watts[key] = 0.37 * (index + 1)
        grids = rasterize(plan, watts, nx=31, ny=29)
        per_die_expected = [0.0] * plan.dies
        for block in plan.blocks:
            per_die_expected[block.die] += watts[(block.name, block.die)]
        for die, grid in enumerate(grids):
            assert float(grid.sum()) == pytest.approx(per_die_expected[die], rel=1e-12)
            assert (grid >= 0.0).all()

    def test_mask_cache_reused_across_calls(self):
        plan = planar_floorplan()
        watts = build_power_map(plan, [])
        rasterize(plan, watts, nx=16, ny=16)
        assert len(power_map_module._MASK_CACHE) == 1
        first = next(iter(power_map_module._MASK_CACHE.values()))
        rasterize(plan, watts, nx=16, ny=16)
        assert next(iter(power_map_module._MASK_CACHE.values())) is first
        rasterize(plan, watts, nx=18, ny=16)
        assert len(power_map_module._MASK_CACHE) == 2


def _solver_16(convection_k_per_w: float = 0.25) -> ThermalSolver:
    return ThermalSolver(stacked_3d_stack(convection_k_per_w),
                         stacked_floorplan(), nx=16, ny=16)


def _uniform_grids(solver: ThermalSolver):
    ny, nx = solver.chip_grid_shape()
    return [np.full((ny, nx), 0.01)] * solver.stack.die_count


class TestFactorizationCache:
    """Each solver caches its own factors: it factorizes once, and no
    other solver reads them."""

    def test_same_geometry_hits_cache(self):
        """One solver solving twice factorizes once."""
        solver = _solver_16()
        grids = _uniform_grids(solver)
        before = FACTORIZATION_STATS.factorizations
        first = solver.solve(grids)
        second = solver.solve_many([grids, grids])
        assert FACTORIZATION_STATS.factorizations == before + 1
        for result in second:
            for a, b in zip(first.layer_temps, result.layer_temps):
                assert np.array_equal(a, b)

    def test_two_solvers_of_one_geometry_factorize_twice(self):
        first, second = _solver_16(), _solver_16()
        assert first.matrix_key() == second.matrix_key()
        before = FACTORIZATION_STATS.factorizations
        first._build()
        second._build()
        assert FACTORIZATION_STATS.factorizations == before + 2

    def test_distinct_geometry_misses_cache(self):
        before = FACTORIZATION_STATS.factorizations
        _solver_16(0.25)._build()
        _solver_16(0.50)._build()
        assert FACTORIZATION_STATS.factorizations == before + 2

    def test_transient_solver_defers_the_steady_factorization(self):
        from repro.thermal.transient import (
            STEP_FACTORIZATION_STATS,
            TransientThermalSolver,
        )

        solver = _solver_16()
        before = (FACTORIZATION_STATS.factorizations,
                  STEP_FACTORIZATION_STATS.factorizations)
        TransientThermalSolver(solver, dt_s=1e-3)
        assert (FACTORIZATION_STATS.factorizations,
                STEP_FACTORIZATION_STATS.factorizations) == (
                    before[0], before[1] + 1)

        grids = _uniform_grids(solver)
        steady = solver.solve(grids)
        assert FACTORIZATION_STATS.factorizations == before[0] + 1
        # The lazily factorized system is the one assembled for the
        # transient solver, and solves like a freshly built one.
        fresh = _solver_16().solve(grids)
        for a, b in zip(steady.layer_temps, fresh.layer_temps):
            assert np.array_equal(a, b)

    def test_result_key_includes_ambient_but_matrix_key_does_not(self):
        import dataclasses

        base = stacked_3d_stack(0.25)
        warmer = dataclasses.replace(base, ambient_k=base.ambient_k + 10.0)
        plan = stacked_floorplan()
        a = ThermalSolver(base, plan, nx=16, ny=16)
        b = ThermalSolver(warmer, plan, nx=16, ny=16)
        assert a.matrix_key() == b.matrix_key()
        assert a.result_key() != b.result_key()
