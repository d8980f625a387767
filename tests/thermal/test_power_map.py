"""Tests for power-map construction and rasterization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.floorplan.geometry import Block, Floorplan, Rect
from repro.floorplan.planar import planar_floorplan
from repro.floorplan.stacked import stacked_floorplan
from repro.power.model import ModulePower, PowerBreakdown, StackKind
from repro.thermal.power_map import build_power_map, rasterize


def fake_breakdown(stack=StackKind.PLANAR_2D, module_watts=None, clock=2.0, leak=1.0):
    dies = 4 if stack is StackKind.STACKED_3D else 1
    modules = {}
    if module_watts is None:
        module_watts = {"scheduler": 3.0}
    for name, watts in module_watts.items():
        modules[name] = ModulePower(
            name=name, watts=watts, per_die=[watts / dies] * dies
        )
    return PowerBreakdown(
        benchmark="fake", config_name="fake", stack=stack, clock_ghz=2.66,
        modules=modules, clock_watts=clock, leakage_watts=leak,
    )


class TestBuildPowerMap:
    def test_total_power_conserved_planar(self):
        plan = planar_floorplan()
        breakdowns = [fake_breakdown(), fake_breakdown()]
        watts = build_power_map(plan, breakdowns)
        expected = sum(b.total_watts for b in breakdowns)
        assert sum(watts.values()) == pytest.approx(expected)

    def test_total_power_conserved_stacked(self):
        plan = stacked_floorplan()
        breakdowns = [fake_breakdown(StackKind.STACKED_3D)] * 2
        watts = build_power_map(plan, breakdowns)
        expected = sum(b.total_watts for b in breakdowns)
        assert sum(watts.values()) == pytest.approx(expected)

    def test_module_power_lands_on_its_block(self):
        plan = planar_floorplan()
        watts = build_power_map(plan, [fake_breakdown(module_watts={"scheduler": 5.0},
                                                      clock=0.0, leak=0.0),
                                       fake_breakdown(module_watts={},
                                                      clock=0.0, leak=0.0)])
        assert watts[("core0.scheduler", 0)] == pytest.approx(5.0)
        assert watts[("core1.scheduler", 0)] == pytest.approx(0.0)

    def test_l2_power_shared(self):
        plan = planar_floorplan()
        watts = build_power_map(plan, [
            fake_breakdown(module_watts={"l2_cache": 2.0}, clock=0.0, leak=0.0),
            fake_breakdown(module_watts={"l2_cache": 3.0}, clock=0.0, leak=0.0),
        ])
        assert watts[("l2_cache", 0)] == pytest.approx(5.0)

    def test_clock_and_leak_spread_by_area(self):
        plan = planar_floorplan()
        watts = build_power_map(plan, [
            fake_breakdown(module_watts={}, clock=4.0, leak=2.0),
            fake_breakdown(module_watts={}, clock=0.0, leak=0.0),
        ])
        total_area = plan.total_block_area()
        l2 = plan.find("l2_cache")
        assert watts[("l2_cache", 0)] == pytest.approx(6.0 * l2.area_mm2 / total_area)

    def test_shared_power_spread_matches_per_block_areas(self):
        # The memoized area table spreads clock, leakage and unplaced
        # module power with the same float expression, block by block,
        # as reading every block's area and summing them on each call.
        plan = stacked_floorplan()
        breakdowns = [
            fake_breakdown(StackKind.STACKED_3D,
                           module_watts={"scheduler": 3.1, "mystery": 0.7},
                           clock=4.3, leak=2.9),
            fake_breakdown(StackKind.STACKED_3D,
                           module_watts={"l2_cache": 1.3}, clock=1.1,
                           leak=0.3),
        ]
        watts = build_power_map(plan, breakdowns)
        shared = 0.0  # accumulated in build_power_map's order
        for _ in range(4):
            shared += 0.7 / 4  # "mystery" has no block on any die
        shared += 4.3 + 2.9
        shared += 1.1 + 0.3
        placed = build_power_map(plan, [
            fake_breakdown(StackKind.STACKED_3D,
                           module_watts={"scheduler": 3.1}, clock=0.0,
                           leak=0.0),
            fake_breakdown(StackKind.STACKED_3D,
                           module_watts={"l2_cache": 1.3}, clock=0.0,
                           leak=0.0),
        ])
        total_area = sum(block.area_mm2 for block in plan.blocks)
        assert plan.total_block_area() == total_area
        assert list(watts) == [(b.name, b.die) for b in plan.blocks]
        for block in plan.blocks:
            key = (block.name, block.die)
            assert watts[key] == (
                placed[key] + shared * block.area_mm2 / total_area)

    def test_unknown_modules_spread(self):
        plan = planar_floorplan()
        watts = build_power_map(plan, [
            fake_breakdown(module_watts={"mystery": 7.0}, clock=0.0, leak=0.0),
            fake_breakdown(module_watts={}, clock=0.0, leak=0.0),
        ])
        assert sum(watts.values()) == pytest.approx(7.0)


class TestRasterize:
    def _single_block_plan(self, rect):
        plan = Floorplan(name="t", width_mm=8.0, height_mm=8.0, dies=1)
        plan.add(Block("b", rect))
        return plan

    def test_power_conserved(self):
        plan = self._single_block_plan(Rect(1.0, 1.0, 3.0, 2.0))
        grids = rasterize(plan, {("b", 0): 5.0}, nx=16, ny=16)
        assert grids[0].sum() == pytest.approx(5.0, rel=1e-6)

    def test_power_in_right_cells(self):
        plan = self._single_block_plan(Rect(0.0, 0.0, 4.0, 4.0))
        grids = rasterize(plan, {("b", 0): 8.0}, nx=8, ny=8)
        # Power only in the first quadrant (cells 0..3, 0..3).
        assert grids[0][:4, :4].sum() == pytest.approx(8.0)
        assert grids[0][4:, :].sum() == 0.0

    def test_partial_cell_overlap(self):
        plan = self._single_block_plan(Rect(0.0, 0.0, 0.5, 0.5))
        grids = rasterize(plan, {("b", 0): 1.0}, nx=8, ny=8)  # 1mm cells
        assert grids[0][0, 0] == pytest.approx(1.0)
        assert grids[0].sum() == pytest.approx(1.0)

    def test_zero_power_blocks_skipped(self):
        plan = self._single_block_plan(Rect(0.0, 0.0, 1.0, 1.0))
        grids = rasterize(plan, {("b", 0): 0.0}, nx=4, ny=4)
        assert grids[0].sum() == 0.0

    def test_rejects_tiny_grid(self):
        plan = self._single_block_plan(Rect(0.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            rasterize(plan, {("b", 0): 1.0}, nx=1, ny=1)

    def test_multi_die(self):
        plan = Floorplan(name="t", width_mm=4.0, height_mm=4.0, dies=2)
        plan.add(Block("a", Rect(0, 0, 2, 2), die=0))
        plan.add(Block("b", Rect(2, 2, 2, 2), die=1))
        grids = rasterize(plan, {("a", 0): 1.0, ("b", 1): 2.0}, nx=8, ny=8)
        assert grids[0].sum() == pytest.approx(1.0)
        assert grids[1].sum() == pytest.approx(2.0)

    @settings(max_examples=25, deadline=None)
    @given(
        x=st.floats(0.0, 5.0), y=st.floats(0.0, 5.0),
        w=st.floats(0.1, 3.0), h=st.floats(0.1, 3.0),
        power=st.floats(0.01, 50.0),
    )
    def test_conservation_property(self, x, y, w, h, power):
        """Rasterization conserves power for any in-bounds block."""
        plan = self._single_block_plan(Rect(x, y, w, h))
        grids = rasterize(plan, {("b", 0): power}, nx=16, ny=16)
        assert grids[0].sum() == pytest.approx(power, rel=1e-6)
