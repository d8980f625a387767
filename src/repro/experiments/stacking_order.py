"""Stacking-order ablation: does the LSW die belong next to the sink?

Thermal Herding's physical premise is that the least-significant-word
die — the one that stays active on narrow values — should sit adjacent
to the heat sink.  This ablation flips the stack (LSW die at the bottom,
farthest from the sink) while keeping the identical per-die power, and
measures how much of the technique's thermal benefit comes purely from
*where* the herded activity lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.context import (
    CORE_COUNT,
    ExperimentContext,
    ExperimentSettings,
    REFERENCE_BENCHMARK,
)
from repro.experiments.plan import Requirements, run_section
from repro.power.model import StackKind
from repro.thermal.power_map import build_power_map, rasterize
from repro.thermal.solver import ThermalResult


@dataclass
class StackingOrderResult:
    """Peak temperatures for the two die orderings."""

    benchmark: str
    herded_peak_k: float       # LSW die adjacent to the sink (the paper)
    inverted_peak_k: float     # LSW die farthest from the sink

    @property
    def penalty_k(self) -> float:
        """Extra degrees from putting the busy die at the bottom."""
        return self.inverted_peak_k - self.herded_peak_k

    def format(self) -> str:
        return "\n".join([
            f"stacking-order ablation ({self.benchmark}, 3D Thermal Herding power)",
            f"  LSW die at the heat sink (paper): {self.herded_peak_k:6.1f} K",
            f"  LSW die at the bottom (flipped):  {self.inverted_peak_k:6.1f} K",
            f"  orientation penalty:              {self.penalty_k:+6.1f} K",
        ])


def requirements(
    settings: ExperimentSettings,
    benchmark: str = REFERENCE_BENCHMARK,
) -> Requirements:
    """The benchmark's 3D TH map with normal and flipped die order."""
    return Requirements(
        render=lambda results: results.solved,
        runs=[(benchmark, "3D"), (REFERENCE_BENCHMARK, "Base")],
        solve=lambda context: _solve(context, benchmark),
    )


def _solve(context: ExperimentContext, benchmark: str) -> StackingOrderResult:
    breakdown = context.power(benchmark, "3D")
    plan = context.floorplan(StackKind.STACKED_3D)
    solver = context.solver(StackKind.STACKED_3D)
    watts = build_power_map(plan, [breakdown] * CORE_COUNT)
    ny, nx = solver.chip_grid_shape()
    grids = rasterize(plan, watts, nx, ny)

    # One batched, disk-cached solve for both orientations.
    herded: ThermalResult
    inverted: ThermalResult
    herded, inverted = context.solve_thermal_groups(
        [(solver, [grids, list(reversed(grids))])]
    )[0]
    return StackingOrderResult(
        benchmark=benchmark,
        herded_peak_k=herded.peak_temperature,
        inverted_peak_k=inverted.peak_temperature,
    )


def run_stacking_order(
    context: Optional[ExperimentContext] = None,
    benchmark: str = REFERENCE_BENCHMARK,
) -> StackingOrderResult:
    """Solve the 3D TH thermal map with normal and flipped die order."""
    return run_section(context, requirements, benchmark)
