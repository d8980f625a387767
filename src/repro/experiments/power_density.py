"""Section 5.3's iso-power, iso-frequency power-density experiment.

The paper stacks the planar processor's 90 W at 2.66 GHz into the 3D
footprint — quadrupling power density while discarding 3D's latency and
power benefits — and observes a worst-case temperature of 418 K, a 58 K
increase over the planar baseline.  The point: the 3D processor's actual
temperature rise stays small *because* its total power drops.
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
from repro.thermal.solver import ThermalResult

PAPER_ISO_POWER_DELTA_K = 58.0


@dataclass
class PowerDensityResult:
    """Planar baseline vs the 4x-density iso-power stack."""

    planar: ThermalResult
    iso_power: ThermalResult
    planar_watts: float
    iso_watts: float

    @property
    def delta_k(self) -> float:
        return self.iso_power.peak_temperature - self.planar.peak_temperature

    def format(self) -> str:
        return "\n".join([
            "Section 5.3: iso-power (90 W) iso-frequency (2.66 GHz) 3D stacking",
            f"  planar    {self.planar.peak_temperature:6.1f} K at {self.planar_watts:.1f} W",
            f"  4x density {self.iso_power.peak_temperature:5.1f} K at {self.iso_watts:.1f} W "
            f"(+{self.delta_k:.1f} K; paper +{PAPER_ISO_POWER_DELTA_K:.0f} K -> 418 K)",
        ])


def requirements(settings: ExperimentSettings) -> Requirements:
    """The reference app's planar run, solved on both stacks."""
    return Requirements(render=lambda results: results.solved,
                        runs=[(REFERENCE_BENCHMARK, "Base")], solve=_solve)


def _solve(context: ExperimentContext) -> PowerDensityResult:
    base_run = context.run(REFERENCE_BENCHMARK, "Base")
    model = context.power_model()

    planar_breakdown = model.evaluate(base_run, StackKind.PLANAR_2D)
    # The same workload's activity evaluated as a stack (uniform die
    # spreading, no herding, no 3D energy benefit credited), rescaled to
    # exactly the planar total power; both maps solve in one dispatch.
    stacked_breakdown = model.evaluate(base_run, StackKind.STACKED_3D)
    scale = planar_breakdown.total_watts / stacked_breakdown.total_watts
    solved = context.thermal_grouped({
        StackKind.PLANAR_2D: [([planar_breakdown] * CORE_COUNT, 1.0)],
        StackKind.STACKED_3D: [([stacked_breakdown] * CORE_COUNT, scale)],
    })
    planar = solved[StackKind.PLANAR_2D][0]
    iso = solved[StackKind.STACKED_3D][0]
    return PowerDensityResult(
        planar=planar,
        iso_power=iso,
        planar_watts=CORE_COUNT * planar_breakdown.total_watts,
        iso_watts=CORE_COUNT * stacked_breakdown.total_watts * scale,
    )


def run_power_density(context: Optional[ExperimentContext] = None) -> PowerDensityResult:
    """Solve the planar map and the same power folded into the 3D stack."""
    return run_section(context, requirements)
