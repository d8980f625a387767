"""Cache keys: pinned hex values and value-keyed memo safety.

The key functions memoize the config and geometry parts of their
payloads.  These tests pin one key of each result kind, so a change to
the key layout shows up as a failure here, and check that the memos key
on values: equal inputs built separately share a key, and any change to
an input changes it.  A deliberate bump of ``CACHE_SCHEMA_VERSION`` or of
a model version re-records ``GOLDEN_KEYS``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from repro.cli import FAST_SETTINGS
from repro.cpu.config import CPUConfig, baseline_config
from repro.experiments.cache import (
    _canonical,
    content_key,
    leakage_key,
    simulation_key,
    thermal_key,
    transient_key,
)
from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.sensitivity import SWEEPS, _stack_with
from repro.floorplan.geometry import Block, Rect
from repro.floorplan.stacked import stacked_floorplan
from repro.power.model import StackKind
from repro.thermal.power_map import build_power_map, rasterize
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import stacked_3d_stack
from repro.thermal.transient import PowerSchedule

GOLDEN_KEYS = {
    "simulation": "64ac249a4be740f6f3e3bf401fac2974c8f08b6089c13b8cc5227520885a389e",
    "thermal": "15f5193d408f9ddfe4a355f2c851d66b4a733e85c0d5ff0e8b8359aecd3b1de6",
    "transient": "62714dc5ccea32999907e5238ccbd8cb01dbf8146cbd95272aee84c6413590c0",
    "leakage": "21658ba7a0d3eb0152b95d8e992e7484f2f43b0c41f5c0d667cfec59873276c7",
}

#: ``result_digest()`` of the fast report's planar and 3D solvers (the
#: geometry part of every thermal-kind key a fast report stores).
GOLDEN_FAST_DIGESTS = {
    "planar": "16f0c9276fb3e5c520e8dbbc1af4e678293deacbdfdb510eb1f2aa41b6065d1c",
    "3D": "f91b723da428a90be8769839fc43bcc6f9a9244eacbfa83da150c9f1e2945e3e",
}


def _solver(thickness_mm: float = 0.25, grid: int = 16) -> ThermalSolver:
    return ThermalSolver(stacked_3d_stack(thickness_mm), stacked_floorplan(),
                         nx=grid, ny=grid)


def _grids(solver, scale: float = 1.0):
    ny, nx = solver.chip_grid_shape()
    return [
        scale * (die + 1) * np.arange(ny * nx, dtype=np.float64).reshape(ny, nx)
        / (ny * nx)
        for die in range(solver.floorplan.dies)
    ]


class _TokenSchedule(PowerSchedule):
    """A schedule whose cache token is fixed, for key tests only."""

    def __init__(self, grids):
        self.grids = grids

    def power_grids(self, t_s, prev_peak_k):
        return self.grids

    def cache_token(self):
        return "fixed-schedule"


def _keys(solver) -> dict:
    grids = _grids(solver)
    return {
        "simulation": simulation_key("adpcm", baseline_config(), 2_000, 500),
        "thermal": thermal_key(solver, grids),
        "transient": transient_key(solver, 20e-3, 0.2, None,
                                   _TokenSchedule(grids)),
        "leakage": leakage_key(solver, grids, _grids(solver, 0.1),
                               reference_k=318.15, efold_k=40.0,
                               max_iterations=8, tolerance_k=0.01),
    }


def _changed(value):
    """A different value of the same type, for one CPUConfig field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-changed"
    raise TypeError(f"no change rule for {value!r}")


class TestGoldenKeys:
    def test_keys_are_pinned(self):
        assert _keys(_solver()) == GOLDEN_KEYS


class TestMemoSafety:
    def test_every_config_field_changes_the_simulation_key(self):
        config = baseline_config()
        base = simulation_key("adpcm", config, 2_000, 500)
        seen = {base}
        for field in dataclasses.fields(CPUConfig):
            changed = dataclasses.replace(
                config, **{field.name: _changed(getattr(config, field.name))})
            key = simulation_key("adpcm", changed, 2_000, 500)
            assert key != base, field.name
            seen.add(key)
        assert len(seen) == len(dataclasses.fields(CPUConfig)) + 1

    def test_equal_configs_built_separately_share_a_key(self):
        first = dataclasses.replace(baseline_config(), rob_size=128)
        second = dataclasses.replace(CPUConfig(**dataclasses.asdict(
            baseline_config())), rob_size=128)
        assert first is not second
        assert (simulation_key("susan", first, 2_000, 500)
                == simulation_key("susan", second, 2_000, 500))

    def test_equal_solvers_built_separately_share_keys(self):
        first, second = _solver(), _solver()
        assert first is not second
        assert _keys(first) == _keys(second)

    def test_different_geometry_changes_thermal_keys(self):
        base = _solver()
        grids = _grids(base)
        thicker = _solver(thickness_mm=0.5)
        assert thicker.chip_grid_shape() == base.chip_grid_shape()
        assert thermal_key(thicker, grids) != thermal_key(base, grids)
        keys, thicker_keys = _keys(base), _keys(thicker)
        for kind in ("thermal", "transient", "leakage"):
            assert thicker_keys[kind] != keys[kind], kind


def _report_solvers(settings):
    """Every solver a report with ``settings`` builds: the context's two
    stacks, then one per packaging-sensitivity point, constructed as
    :func:`repro.experiments.sensitivity.run_sensitivity` does (the
    stacking-order ablation reuses the context's 3D solver)."""
    context = ExperimentContext(settings, jobs=1, cache=None)
    solvers = [context.solver(StackKind.PLANAR_2D),
               context.solver(StackKind.STACKED_3D)]
    plan = context.floorplan(StackKind.STACKED_3D)
    grid = settings.thermal_grid
    points = [(0.17, 50.0, 0.25)]
    for parameter, _nominal, values in SWEEPS:
        for value in values:
            points.append((
                value if parameter == "convection K/W" else 0.17,
                value if parameter == "TIM W/mK" else 50.0,
                value if parameter == "via copper fraction" else 0.25,
            ))
    solvers += [ThermalSolver(_stack_with(*point), plan, grid, grid)
                for point in points]
    return solvers


def _full_json_digest(solver) -> str:
    """SHA-256 of the whole ``result_key()`` as compact JSON, encoded in
    one piece."""
    text = json.dumps(solver.result_key(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGeometryDigest:
    """The per-solver geometry digest against the canonical-form route
    every other key part takes."""

    def test_fast_report_digests_are_pinned(self):
        planar, stacked = _report_solvers(FAST_SETTINGS)[:2]
        assert {"planar": planar.result_digest(),
                "3D": stacked.result_digest()} == GOLDEN_FAST_DIGESTS

    def test_solvers_sharing_a_floorplan_match_the_full_json(self):
        solvers = _report_solvers(FAST_SETTINGS)
        planar, stacked = solvers[0].floorplan, solvers[1].floorplan
        assert all(s.floorplan is stacked for s in solvers[2:])
        for solver in solvers:
            assert solver.result_digest() == _full_json_digest(solver)
        digests = [s.result_digest() for s in solvers]

        stacked.add(Block("extra", Rect(0.2, 0.2, 0.4, 0.3), die=1))
        assert stacked.fingerprint_json() == json.dumps(
            stacked.fingerprint(), sort_keys=True, separators=(",", ":"))
        assert '"extra"' in stacked.fingerprint_json()
        assert solvers[0].result_digest() == digests[0]
        for solver, before in zip(solvers[1:], digests[1:]):
            assert solver.result_digest() != before
            assert solver.result_digest() == _full_json_digest(solver)
        assert planar.fingerprint_json() == json.dumps(
            planar.fingerprint(), sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("settings", [FAST_SETTINGS, ExperimentSettings()],
                             ids=["fast", "full"])
    def test_report_solvers_match_the_canonical_route(self, settings):
        solvers = _report_solvers(settings)
        assert len(solvers) == 15
        digests = set()
        for solver in solvers:
            expected = content_key(_canonical(solver.result_key()))
            assert solver.result_digest() == expected
            assert solver.result_digest() == expected  # the memo's answer
            digests.add(expected)
        # Every sweep repeats the nominal point, so 13 sweep solvers have
        # 10 geometries; the nominal one differs from the context's 3D
        # solver by its stack's name.
        assert len(digests) == 12

    def test_adding_a_block_changes_fingerprint_digest_and_raster(self):
        solver = _solver()
        plan = solver.floorplan
        fingerprint = plan.fingerprint()
        assert plan.fingerprint() is fingerprint
        areas = plan.block_areas()
        assert plan.block_areas() is areas
        digest = solver.result_digest()
        watts = {key: 1.0 for key in build_power_map(plan, [])}
        ny, nx = solver.chip_grid_shape()
        before = [grid.copy() for grid in rasterize(plan, watts, nx, ny)]
        grids = _grids(solver)
        key = thermal_key(solver, grids)

        extra = Block("extra", Rect(0.2, 0.2, 0.4, 0.3), die=1)
        plan.add(extra)
        watts[(extra.name, extra.die)] = 2.0
        assert plan.fingerprint() != fingerprint
        assert plan.block_areas().keys == areas.keys + (("extra", 1),)
        assert plan.total_block_area() == pytest.approx(areas.total + 0.12)
        assert solver.result_digest() != digest
        assert solver.result_digest() == content_key(
            _canonical(solver.result_key()))
        assert thermal_key(solver, grids) != key
        after = rasterize(plan, watts, nx, ny)
        assert after[1].sum() == pytest.approx(before[1].sum() + 2.0)
        assert after[0].tobytes() == before[0].tobytes()
