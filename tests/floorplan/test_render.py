"""Tests for floorplan rendering and the Figure 7 experiment."""

import pytest

from repro.experiments.context import ExperimentContext
from repro.experiments.figure7 import Figure7Result, run_figure7
from repro.floorplan.planar import planar_floorplan
from repro.floorplan.stacked import stacked_floorplan
from repro.floorplan.render import area_summary, render_die_ascii
from repro.power.model import StackKind


class TestRenderDie:
    def test_renders_frame_and_legend(self):
        text = render_die_ascii(planar_floorplan(), die=0, width_chars=40)
        lines = text.splitlines()
        assert lines[0].startswith("+")
        assert "legend:" in text
        assert "l2_cache" in text

    def test_every_block_appears(self):
        plan = planar_floorplan()
        text = render_die_ascii(plan, die=0, width_chars=60)
        body = text.split("legend:")[0]
        # Count distinct non-frame characters: should match block count.
        used = {c for line in body.splitlines() for c in line.strip("+|-")}
        used.discard(" ")
        assert len(used) == len(plan.blocks_on_die(0))

    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            render_die_ascii(planar_floorplan(), width_chars=4)

    def test_rejects_empty_die(self):
        plan = planar_floorplan()
        with pytest.raises(ValueError):
            render_die_ascii(plan, die=0 + 99)


class TestAreaSummary:
    def test_mentions_dims(self):
        text = area_summary(planar_floorplan())
        assert "mm^2" in text
        assert "die 0" in text


class TestFigure7:
    def test_footprint_reduction(self):
        result = run_figure7()
        assert result.footprint_reduction == pytest.approx(4.0, abs=0.2)

    def test_format(self):
        assert "Figure 7" in run_figure7().format()

    def test_renders_the_context_floorplans_unchanged(self):
        context = ExperimentContext(cache=None)
        plans = [context.floorplan(stack) for stack in StackKind]
        fingerprints = [plan.fingerprint() for plan in plans]
        result = run_figure7(context)
        assert result.format() == Figure7Result(
            planar=planar_floorplan(), stacked=stacked_floorplan()).format()
        assert [result.planar, result.stacked] == plans
        assert result.planar is context.floorplan(StackKind.PLANAR_2D)
        assert result.stacked is context.floorplan(StackKind.STACKED_3D)
        assert all(plan.fingerprint() is fingerprint
                   for plan, fingerprint in zip(plans, fingerprints))
