"""Figure 9: power of the planar, 3D (no herding), and 3D TH processors.

The paper's peak-power application is mpeg2, two instances on two cores:
90 W planar, 72.7 W for the 3D processor without Thermal Herding (-19 %),
and 64.3 W with Thermal Herding (-29 %).  Across applications the Thermal
Herding saving ranges from 15 % (yacr2) to 30 % (susan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.experiments.context import (
    CORE_COUNT,
    ExperimentContext,
    ExperimentSettings,
    REFERENCE_BENCHMARK,
)
from repro.experiments.plan import Requirements, Resolved, grid, run_section
from repro.power.model import PowerBreakdown

PAPER_BASE_WATTS = 90.0
PAPER_NOTH_WATTS = 72.7
PAPER_TH_WATTS = 64.3


@dataclass
class Figure9Result:
    """Chip power for the three processors plus per-app savings."""

    #: per-core breakdowns of the reference app under the three processors
    base: PowerBreakdown
    no_herding: PowerBreakdown
    herding: PowerBreakdown
    #: benchmark -> (2D watts, 3D TH watts, fractional saving), whole chip
    per_benchmark: Dict[str, Tuple[float, float, float]]

    @property
    def base_chip_watts(self) -> float:
        return CORE_COUNT * self.base.total_watts

    @property
    def no_herding_chip_watts(self) -> float:
        return CORE_COUNT * self.no_herding.total_watts

    @property
    def herding_chip_watts(self) -> float:
        return CORE_COUNT * self.herding.total_watts

    @property
    def no_herding_saving(self) -> float:
        return 1.0 - self.no_herding_chip_watts / self.base_chip_watts

    @property
    def herding_saving(self) -> float:
        return 1.0 - self.herding_chip_watts / self.base_chip_watts

    @property
    def min_saving(self) -> Tuple[str, float]:
        name = min(self.per_benchmark, key=lambda b: self.per_benchmark[b][2])
        return name, self.per_benchmark[name][2]

    @property
    def max_saving(self) -> Tuple[str, float]:
        name = max(self.per_benchmark, key=lambda b: self.per_benchmark[b][2])
        return name, self.per_benchmark[name][2]

    def format(self) -> str:
        lines = [
            "Figure 9: total chip power (reference app on both cores)",
            f"  (a) planar 2D      {self.base_chip_watts:6.1f} W   (paper {PAPER_BASE_WATTS} W)",
            f"  (b) 3D no herding  {self.no_herding_chip_watts:6.1f} W  "
            f"(-{self.no_herding_saving:.1%}; paper {PAPER_NOTH_WATTS} W, -19%)",
            f"  (c) 3D herding     {self.herding_chip_watts:6.1f} W  "
            f"(-{self.herding_saving:.1%}; paper {PAPER_TH_WATTS} W, -29%)",
            "",
            "per-application Thermal Herding savings (chip, vs planar):",
        ]
        for name, (w2d, w3d, saving) in sorted(
            self.per_benchmark.items(), key=lambda kv: kv[1][2]
        ):
            lines.append(f"  {name:<10s} {w2d:6.1f} W -> {w3d:6.1f} W   (-{saving:.1%})")
        mn, mx = self.min_saving, self.max_saving
        lines.append(
            f"range: {mn[1]:.1%} ({mn[0]}) .. {mx[1]:.1%} ({mx[0]}); "
            f"paper: 15% (yacr2) .. 30% (susan)"
        )
        return "\n".join(lines)


def requirements(settings: ExperimentSettings) -> Requirements:
    """The reference app on the three processors, and every app planar
    and 3D."""
    return Requirements(
        render=render,
        runs=[(REFERENCE_BENCHMARK, label)
              for label in ("Base", "3D-noTH", "3D")]
        + grid(("Base", "3D"), settings.benchmark_list()),
    )


def render(results: Resolved) -> Figure9Result:
    context = results.context
    base = context.power(REFERENCE_BENCHMARK, "Base")
    no_herding = context.power(REFERENCE_BENCHMARK, "3D-noTH")
    herding = context.power(REFERENCE_BENCHMARK, "3D")

    per_benchmark: Dict[str, Tuple[float, float, float]] = {}
    for benchmark in context.settings.benchmark_list():
        w2d = context.chip_power_watts(benchmark, "Base")
        w3d = context.chip_power_watts(benchmark, "3D")
        per_benchmark[benchmark] = (w2d, w3d, 1.0 - w3d / w2d)

    return Figure9Result(
        base=base,
        no_herding=no_herding,
        herding=herding,
        per_benchmark=per_benchmark,
    )


def run_figure9(context: Optional[ExperimentContext] = None) -> Figure9Result:
    """Evaluate the three processors' power, plus the per-app range."""
    return run_section(context, requirements)
