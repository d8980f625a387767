"""Figure 7: the planar floorplan and the 4-die 3D floorplan.

The paper's Figure 7 shows (a) the two-core planar chip and (b) the top
die of the 4-die stack after re-packing — roughly a 4x footprint
reduction.  This experiment renders both layouts and checks the area
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.floorplan import Floorplan, planar_floorplan, stacked_floorplan
from repro.floorplan.render import area_summary, render_die_ascii

PAPER_FOOTPRINT_REDUCTION = 4.0


@dataclass
class Figure7Result:
    """Both floorplans plus the footprint ratio."""

    planar: Floorplan
    stacked: Floorplan

    @property
    def footprint_reduction(self) -> float:
        planar_area = self.planar.width_mm * self.planar.height_mm
        stacked_area = self.stacked.width_mm * self.stacked.height_mm
        return planar_area / stacked_area

    def format(self) -> str:
        return "\n".join([
            "Figure 7 (a): planar two-core floorplan",
            area_summary(self.planar),
            render_die_ascii(self.planar, die=0, width_chars=60),
            "",
            "Figure 7 (b): 3D floorplan (every die carries this layout)",
            area_summary(self.stacked),
            render_die_ascii(self.stacked, die=0, width_chars=40),
            "",
            f"footprint reduction: {self.footprint_reduction:.1f}x "
            f"(paper: ~{PAPER_FOOTPRINT_REDUCTION:.0f}x)",
        ])


def run_figure7() -> Figure7Result:
    """Build both floorplans (their builders validate them)."""
    return Figure7Result(planar=planar_floorplan(), stacked=stacked_floorplan())
