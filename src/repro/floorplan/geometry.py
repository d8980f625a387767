"""Floorplan geometry primitives."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle in millimetres."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"rectangle must have positive dimensions, got {self.w}x{self.h}")

    @property
    def area_mm2(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> Tuple[float, float]:
        return self.x + self.w / 2.0, self.y + self.h / 2.0

    def overlaps(self, other: "Rect", tolerance: float = 1e-9) -> bool:
        return not (
            self.x + self.w <= other.x + tolerance
            or other.x + other.w <= self.x + tolerance
            or self.y + self.h <= other.y + tolerance
            or other.y + other.h <= self.y + tolerance
        )


@dataclass(frozen=True)
class Block:
    """A named floorplan block on a specific die (die 0 = top)."""

    name: str
    rect: Rect
    die: int = 0

    @property
    def area_mm2(self) -> float:
        return self.rect.area_mm2


class BlockAreas(NamedTuple):
    """A floorplan's blocks as (name, die) keys with their areas."""

    keys: Tuple[Tuple[str, int], ...]
    areas: Tuple[float, ...]
    total: float


@dataclass
class Floorplan:
    """A complete chip floorplan across one or more dies.

    Change ``blocks`` only through :meth:`add`: it drops the memoized
    :meth:`fingerprint` (and its :meth:`fingerprint_json`) that the
    rasterizer and the thermal cache keys are built on, and the memoized
    :meth:`block_areas`.
    """

    name: str
    width_mm: float
    height_mm: float
    dies: int
    blocks: List[Block] = field(default_factory=list)
    _fingerprint: Optional[Tuple] = field(
        default=None, init=False, repr=False, compare=False)
    _fingerprint_json: Optional[str] = field(
        default=None, init=False, repr=False, compare=False)
    _areas: Optional[BlockAreas] = field(
        default=None, init=False, repr=False, compare=False)

    def add(self, block: Block) -> None:
        if not 0 <= block.die < self.dies:
            raise ValueError(f"block {block.name} on die {block.die}, but floorplan has {self.dies}")
        self.blocks.append(block)
        self._fingerprint = None
        self._fingerprint_json = None
        self._areas = None

    def blocks_on_die(self, die: int) -> List[Block]:
        return [b for b in self.blocks if b.die == die]

    def find(self, name: str, die: Optional[int] = None) -> Block:
        for block in self.blocks:
            if block.name == name and (die is None or block.die == die):
                return block
        raise KeyError(f"no block named {name!r}" + (f" on die {die}" if die is not None else ""))

    def total_block_area(self) -> float:
        return self.block_areas().total

    def block_areas(self) -> BlockAreas:
        """Every block's (name, die) key and area, in floorplan order, and
        the areas' sum; built once and kept until the next :meth:`add`."""
        if self._areas is None:
            areas = tuple(b.area_mm2 for b in self.blocks)
            self._areas = BlockAreas(
                keys=tuple((b.name, b.die) for b in self.blocks),
                areas=areas,
                total=sum(areas),
            )
        return self._areas

    def fingerprint(self) -> Tuple:
        """Hashable content snapshot of the floorplan geometry.

        Used as a cache key by the rasterizer's scatter-plan memo and
        the persistent thermal-result cache; adding a block yields a
        different fingerprint, so stale entries never match.  Built once
        and kept until the next :meth:`add`: the same object comes back
        from every call in between, so memos may compare it by identity.
        """
        if self._fingerprint is None:
            self._fingerprint = (
                self.name,
                self.width_mm,
                self.height_mm,
                self.dies,
                tuple(
                    (b.name, b.die, b.rect.x, b.rect.y, b.rect.w, b.rect.h)
                    for b in self.blocks
                ),
            )
        return self._fingerprint

    def fingerprint_json(self) -> str:
        """:meth:`fingerprint` as compact JSON, the bulk of every thermal
        solver's geometry digest; built once and kept until the next
        :meth:`add`, so solvers sharing this floorplan encode its block
        coordinates once between them."""
        if self._fingerprint_json is None:
            self._fingerprint_json = json.dumps(
                self.fingerprint(), sort_keys=True, separators=(",", ":"))
        return self._fingerprint_json

    def validate(self) -> None:
        """Check all blocks fit the die outline and do not overlap.

        The outline check compares every block at once, and the overlap
        check every pair on a die at once, with :meth:`Rect.overlaps`'s
        predicates and tolerance.  An error names the block, or the pair,
        that a loop over the blocks and then over each die's pairs
        ``i < j`` would meet first.
        """
        x, y, w, h = np.array(
            [(b.rect.x, b.rect.y, b.rect.w, b.rect.h) for b in self.blocks],
            dtype=np.float64).reshape(-1, 4).T
        right, top = x + w, y + h
        outside = ((x < -1e-9) | (y < -1e-9) | (right > self.width_mm + 1e-9)
                   | (top > self.height_mm + 1e-9))
        if outside.any():
            block = self.blocks[int(np.argmax(outside))]
            raise ValueError(
                f"block {block.name} ({block.rect}) exceeds the {self.width_mm}x{self.height_mm} outline"
            )
        die = np.array([b.die for b in self.blocks], dtype=np.int64)
        x_tol, y_tol = x + 1e-9, y + 1e-9
        for d in range(self.dies):
            on = np.flatnonzero(die == d)
            r, t, xt, yt = right[on], top[on], x_tol[on], y_tol[on]
            apart = ((r[:, None] <= xt[None, :]) | (r[None, :] <= xt[:, None])
                     | (t[:, None] <= yt[None, :]) | (t[None, :] <= yt[:, None]))
            overlap = ~apart
            np.fill_diagonal(overlap, False)
            if overlap.any():
                # The matrix is symmetric, so its first set cell in row-major
                # order is the first pair i < j a loop over the die's blocks
                # meets.
                i, j = divmod(int(np.argmax(overlap)), len(on))
                a, b = self.blocks[on[i]], self.blocks[on[j]]
                raise ValueError(f"blocks {a.name} and {b.name} overlap on die {d}")
