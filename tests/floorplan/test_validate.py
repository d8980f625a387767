"""``Floorplan.validate``'s array checks against the pairwise loop.

``validate`` tests every block against the outline, then every pair of
blocks on each die for overlap, as array comparisons.  The loop below is
the check it replaced, kept as the reference: on every floorplan here
both must pass, or both must raise the same message, naming the same
block or pair.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.floorplan.geometry import Block, Floorplan, Rect
from repro.floorplan.planar import planar_floorplan
from repro.floorplan.stacked import stacked_floorplan


def _reference_validate(plan: Floorplan) -> None:
    for block in plan.blocks:
        r = block.rect
        if r.x < -1e-9 or r.y < -1e-9 or r.x + r.w > plan.width_mm + 1e-9 \
                or r.y + r.h > plan.height_mm + 1e-9:
            raise ValueError(
                f"block {block.name} ({r}) exceeds the {plan.width_mm}x{plan.height_mm} outline"
            )
    for die in range(plan.dies):
        on_die = plan.blocks_on_die(die)
        for i, a in enumerate(on_die):
            for b in on_die[i + 1:]:
                if a.rect.overlaps(b.rect):
                    raise ValueError(f"blocks {a.name} and {b.name} overlap on die {die}")


def _error(check, plan: Floorplan) -> Optional[str]:
    try:
        check(plan)
    except ValueError as exc:
        return str(exc)
    return None


def _plan(blocks, dies: int = 1, size: float = 10.0) -> Floorplan:
    plan = Floorplan(name="t", width_mm=size, height_mm=size, dies=dies)
    for name, rect, die in blocks:
        plan.add(Block(name, Rect(*rect), die=die))
    return plan


def _same_verdict(plan: Floorplan) -> Optional[str]:
    expected = _error(_reference_validate, plan)
    assert _error(Floorplan.validate, plan) == expected
    return expected


class TestAgainstTheLoop:
    def test_shared_edge_passes(self):
        plan = _plan([("a", (0, 0, 2, 2), 0), ("b", (2, 0, 2, 2), 0),
                      ("c", (0, 2, 4, 1), 0)])
        assert _same_verdict(plan) is None

    def test_overlap_within_tolerance_passes(self):
        plan = _plan([("a", (0, 0, 1, 1), 0), ("b", (1 - 5e-10, 0, 1, 1), 0)])
        assert _same_verdict(plan) is None

    def test_overlap_beyond_tolerance_raises(self):
        plan = _plan([("a", (0, 0, 1, 1), 0), ("b", (1 - 2e-9, 0, 1, 1), 0)])
        assert _same_verdict(plan) == "blocks a and b overlap on die 0"

    def test_names_the_pair_the_loop_meets_first(self):
        # Overlapping pairs (b, c) and (a, d): the loop meets (a, d) first
        # (row a), a column-first scan would meet (b, c) first.  Die-1
        # blocks in between shift the global indices off the die's.
        plan = _plan([
            ("a", (0, 0, 1, 1), 0),
            ("x", (0, 0, 1, 1), 1),
            ("b", (4, 4, 2, 2), 0),
            ("c", (5, 5, 2, 2), 0),
            ("y", (3, 3, 1, 1), 1),
            ("d", (0.5, 0.5, 1, 1), 0),
        ], dies=2)
        assert _same_verdict(plan) == "blocks a and d overlap on die 0"

    def test_overlap_only_on_die_two(self):
        plan = _plan([
            ("p", (0, 0, 2, 2), 2),
            ("a", (0, 0, 2, 2), 0),
            ("b", (0, 0, 2, 2), 1),
            ("q", (1, 1, 2, 2), 2),
            ("c", (2, 0, 2, 2), 0),
        ], dies=3)
        assert _same_verdict(plan) == "blocks p and q overlap on die 2"

    def test_lowest_die_is_named_first(self):
        plan = _plan([
            ("u", (0, 0, 2, 2), 1),
            ("v", (1, 1, 2, 2), 1),
            ("a", (5, 5, 2, 2), 0),
            ("b", (6, 6, 2, 2), 0),
        ], dies=2)
        assert _same_verdict(plan) == "blocks a and b overlap on die 0"

    def test_outline_is_checked_before_overlaps(self):
        plan = _plan([("a", (0, 0, 2, 2), 0), ("b", (1, 1, 2, 2), 0),
                      ("c", (9, 9, 2, 2), 0), ("d", (-1, 0, 2, 2), 0)])
        assert _same_verdict(plan) == (
            "block c (Rect(x=9, y=9, w=2, h=2)) exceeds the 10.0x10.0 outline")

    @pytest.mark.parametrize("build", [planar_floorplan, stacked_floorplan])
    def test_paper_floorplans_pass(self, build):
        assert _same_verdict(build()) is None

    def test_random_floorplans(self):
        rng = random.Random(7)
        raised = 0
        for _ in range(300):
            blocks = []
            for k in range(rng.randint(1, 9)):
                rect = (rng.randint(0, 8) / 2, rng.randint(0, 8) / 2,
                        rng.randint(1, 4) / 2, rng.randint(1, 4) / 2)
                blocks.append((f"b{k}", rect, rng.randint(0, 2)))
            raised += _same_verdict(_plan(blocks, dies=3, size=5.0)) is not None
        assert 0 < raised < 300  # both verdicts occur
