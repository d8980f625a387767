"""The scatter-plan rasterizer against its per-block loop reference.

``rasterize`` scatters every block's watts over its footprint cells with
one ``np.bincount`` over a memoized (block, cell, weight) plan.  The loop
below is the per-block slice update it replaced, kept as the reference:
both must give the same grid bytes, because every cell sums its blocks'
contributions in floorplan order in both, and a block whose power is not
positive adds nothing while NaN spreads over its whole footprint.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.floorplan.geometry import Block, Floorplan, Rect
from repro.floorplan.planar import planar_floorplan
from repro.floorplan.stacked import stacked_floorplan
from repro.thermal.power_map import build_power_map, rasterize

#: (nx, ny) grids: the report's two resolutions and an odd, non-square one.
GRIDS = ((48, 48), (64, 64), (31, 29))
MAPS_PER_CASE = 12


def reference_rasterize(floorplan: Floorplan, watts: Dict, nx: int,
                        ny: int) -> List[np.ndarray]:
    dx = floorplan.width_mm / nx
    dy = floorplan.height_mm / ny
    edges_x = np.arange(nx + 1) * dx
    edges_y = np.arange(ny + 1) * dy
    grids = [np.zeros((ny, nx)) for _ in range(floorplan.dies)]
    for block in floorplan.blocks:
        r = block.rect
        x0 = max(0, int(r.x / dx))
        x1 = min(nx, int(np.ceil((r.x + r.w) / dx)))
        y0 = max(0, int(r.y / dy))
        y1 = min(ny, int(np.ceil((r.y + r.h) / dy)))
        overlap_x = np.minimum(edges_x[x0 + 1:x1 + 1], r.x + r.w) \
            - np.maximum(edges_x[x0:x1], r.x)
        overlap_y = np.minimum(edges_y[y0 + 1:y1 + 1], r.y + r.h) \
            - np.maximum(edges_y[y0:y1], r.y)
        np.clip(overlap_x, 0.0, None, out=overlap_x)
        np.clip(overlap_y, 0.0, None, out=overlap_y)
        weights = overlap_y[:, None] * overlap_x[None, :] / r.area_mm2
        power = watts.get((block.name, block.die), 0.0)
        if power <= 0.0:
            continue
        grids[block.die][y0:y1, x0:x1] += power * weights
    return grids


def _random_watts(floorplan: Floorplan, rng: np.random.Generator) -> Dict:
    """Positive watts spanning several decades, with some blocks zero,
    negative, NaN, infinite or missing from the map."""
    watts = build_power_map(floorplan, [])
    for key in watts:
        watts[key] = float(rng.lognormal(0.0, 2.0))
    keys = sorted(watts)
    picks = rng.permutation(len(keys))[:12]
    specials = (0.0, -0.0, -1.5, float("nan"), float("inf"), float("-inf"))
    for index, pick in enumerate(picks):
        if index < len(specials):
            watts[keys[pick]] = specials[index]
        else:
            del watts[keys[pick]]
    return watts


def _overlapping_floorplan(rng: np.random.Generator) -> Floorplan:
    """Random, mutually overlapping blocks: many contributions per cell,
    so any change in summation order shows in the bytes."""
    plan = Floorplan(name="overlapping", width_mm=7.3, height_mm=5.9, dies=2)
    for index in range(60):
        w = float(rng.uniform(0.05, 4.0))
        h = float(rng.uniform(0.05, 3.0))
        x = float(rng.uniform(0.0, plan.width_mm - w))
        y = float(rng.uniform(0.0, plan.height_mm - h))
        plan.add(Block(f"b{index}", Rect(x, y, w, h), die=index % 2))
    return plan


def _assert_same_bytes(got, expected):
    assert len(got) == len(expected)
    for die, (a, b) in enumerate(zip(got, expected)):
        assert a.shape == b.shape and a.dtype == b.dtype, die
        assert a.tobytes() == b.tobytes(), die


@pytest.mark.parametrize("nx,ny", GRIDS)
@pytest.mark.parametrize("build", [planar_floorplan, stacked_floorplan],
                         ids=["planar", "stacked"])
def test_report_floorplans_match_reference(build, nx, ny):
    floorplan = build()
    rng = np.random.default_rng(nx * 1000 + ny + floorplan.dies)
    for _ in range(MAPS_PER_CASE):
        watts = _random_watts(floorplan, rng)
        _assert_same_bytes(rasterize(floorplan, watts, nx, ny),
                           reference_rasterize(floorplan, watts, nx, ny))


@pytest.mark.parametrize("nx,ny", GRIDS)
def test_overlapping_blocks_match_reference(nx, ny):
    rng = np.random.default_rng(7 + nx)
    floorplan = _overlapping_floorplan(rng)
    for _ in range(MAPS_PER_CASE):
        watts = _random_watts(floorplan, rng)
        _assert_same_bytes(rasterize(floorplan, watts, nx, ny),
                           reference_rasterize(floorplan, watts, nx, ny))


def test_empty_map_is_all_zero():
    floorplan = stacked_floorplan()
    grids = rasterize(floorplan, {}, 48, 48)
    assert len(grids) == floorplan.dies
    for grid in grids:
        assert grid.shape == (48, 48)
        assert grid.tobytes() == np.zeros((48, 48)).tobytes()

