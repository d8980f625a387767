"""Floorplan power rasterization.

``build_power_map`` combines per-core power breakdowns into per-(block,
die) watts; ``rasterize`` turns those into per-die grids for the solver.
Clock network and leakage power are distributed across all blocks (all
dies for a 3D stack) proportionally to area — the clock tree and the
leaking transistors are everywhere.

Rasterizing is one scatter.  A plan, built once per (floorplan, nx, ny)
and memoized, lists every block's footprint cells with the fraction of
the block's area in each, block by block in floorplan order.  A map is
then ``np.bincount`` of ``watts * weight`` over the plan's flat cell
indices.  ``bincount`` adds its inputs in order, so every cell sums its
blocks' contributions in floorplan order, starting from 0.0: the same
additions, in the same order, as updating the grid one block slice at a
time, and so the same bytes (``tests/thermal/test_rasterize_reference.py``
keeps that loop as the reference).  A block whose watts are not positive
adds nothing; NaN watts spread over the block's footprint.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.floorplan.geometry import Floorplan
from repro.power.model import PowerBreakdown, StackKind

BlockDieKey = Tuple[str, int]


def build_power_map(
    floorplan: Floorplan,
    core_breakdowns: Sequence[PowerBreakdown],
) -> Dict[BlockDieKey, float]:
    """Per-(block name, die) watts for the whole chip.

    ``core_breakdowns[i]`` supplies the power of ``core{i}.*`` blocks;
    the shared L2 receives every core's L2 power.  Clock and leakage are
    spread area-proportionally over all blocks.
    """
    table = floorplan.block_areas()
    watts: Dict[BlockDieKey, float] = dict.fromkeys(table.keys, 0.0)

    shared_total = 0.0
    for core_index, breakdown in enumerate(core_breakdowns):
        prefix = f"core{core_index}."
        for module_name, module in breakdown.modules.items():
            if module_name == "l2_cache":
                target = "l2_cache"
            else:
                target = prefix + module_name
            for die, die_watts in enumerate(module.per_die):
                key = (target, die)
                if key in watts:
                    watts[key] += die_watts
                else:
                    # Module missing from the floorplan: spread it later.
                    shared_total += die_watts
        shared_total += breakdown.clock_watts + breakdown.leakage_watts

    total_area = table.total
    for key, area in zip(table.keys, table.areas):
        watts[key] += shared_total * area / total_area
    return watts


class _RasterPlan(NamedTuple):
    """One (floorplan, nx, ny)'s scatter plan: every block's footprint
    cells (``counts`` of them per block, block by block in floorplan
    order) as flat (die, row, column) indices, each with the fraction of
    the block's area that falls in it."""

    keys: List[BlockDieKey]
    counts: np.ndarray
    cells: np.ndarray
    weights: np.ndarray


#: (floorplan fingerprint, nx, ny) -> scatter plan, LRU-bounded.
_MASK_CACHE: "OrderedDict[Tuple, _RasterPlan]" = OrderedDict()
_MASK_CACHE_CAP = 8


def clear_mask_cache() -> None:
    """Drop all memoized scatter plans."""
    _MASK_CACHE.clear()


def _raster_plan(floorplan: Floorplan, nx: int, ny: int) -> _RasterPlan:
    """Fractional cell-overlap weights for every block, memoized.

    Each block's weights sum to 1 (its full area lands on the grid), so
    scaling by the block's watts conserves power exactly.  A block's
    footprint is its bounding box of cells, zero-overlap cells at the
    edges included.  The whole plan is built with array operations over
    every block at once; each weight is ``(overlap_y * overlap_x) /
    area``, the reference loop's expression, so the bytes match it.
    """
    key = (floorplan.fingerprint(), nx, ny)
    plan = _MASK_CACHE.get(key)
    if plan is not None:
        _MASK_CACHE.move_to_end(key)
        return plan
    blocks = floorplan.blocks
    dx = floorplan.width_mm / nx
    dy = floorplan.height_mm / ny
    edges_x = np.arange(nx + 1) * dx
    edges_y = np.arange(ny + 1) * dy
    rects = np.array([(b.rect.x, b.rect.y, b.rect.w, b.rect.h)
                      for b in blocks], dtype=np.float64).reshape(-1, 4)
    left, bottom, width, height = rects.T
    right = left + width
    top = bottom + height
    # astype truncates toward zero, as int() does.
    x0 = np.maximum(0, (left / dx).astype(np.int64))
    x1 = np.minimum(nx, np.ceil(right / dx).astype(np.int64))
    y0 = np.maximum(0, (bottom / dy).astype(np.int64))
    y1 = np.minimum(ny, np.ceil(top / dy).astype(np.int64))
    span_x = np.maximum(x1 - x0, 0)
    counts = span_x * np.maximum(y1 - y0, 0)

    # One entry per footprint cell, block-major, row-major inside a block.
    block = np.repeat(np.arange(len(blocks)), counts)
    starts = np.cumsum(counts) - counts
    local = np.arange(int(counts.sum())) - np.repeat(starts, counts)
    row = y0[block] + local // span_x[block]
    col = x0[block] + local % span_x[block]
    overlap_x = np.minimum(edges_x[col + 1], right[block]) \
        - np.maximum(edges_x[col], left[block])
    overlap_y = np.minimum(edges_y[row + 1], top[block]) \
        - np.maximum(edges_y[row], bottom[block])
    np.clip(overlap_x, 0.0, None, out=overlap_x)
    np.clip(overlap_y, 0.0, None, out=overlap_y)
    weights = overlap_y * overlap_x / (width * height)[block]
    dies = np.array([b.die for b in blocks], dtype=np.int64)
    plan = _RasterPlan(
        keys=[(b.name, b.die) for b in blocks],
        counts=counts,
        cells=(dies[block] * ny + row) * nx + col,
        weights=weights,
    )
    _MASK_CACHE[key] = plan
    while len(_MASK_CACHE) > _MASK_CACHE_CAP:
        _MASK_CACHE.popitem(last=False)
    return plan


def rasterize(
    floorplan: Floorplan,
    watts: Dict[BlockDieKey, float],
    nx: int,
    ny: int,
) -> List[np.ndarray]:
    """Per-die (ny, nx) power grids in watts.

    Each block's power is distributed uniformly over the grid cells it
    overlaps, with partial cells weighted by overlap area.  The overlap
    weights depend only on (floorplan, nx, ny), so they are computed
    once (:func:`_raster_plan`) and reused across every rasterization
    of the same floorplan at the same resolution.  The grids are views
    of one flat array that ``np.bincount`` scatters every block's
    ``watts * weights`` into.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"grid must be at least 2x2, got {nx}x{ny}")
    plan = _raster_plan(floorplan, nx, ny)
    power = np.array([watts.get(key, 0.0) for key in plan.keys],
                     dtype=np.float64)
    # A block without positive power adds nothing; NaN is not "<= 0" and
    # spreads over its footprint, as adding it would.
    power[power <= 0.0] = 0.0
    flat = np.bincount(plan.cells,
                       weights=np.repeat(power, plan.counts) * plan.weights,
                       minlength=floorplan.dies * ny * nx)
    return list(flat.reshape(floorplan.dies, ny, nx))
