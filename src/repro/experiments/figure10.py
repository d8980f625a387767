"""Figure 10: thermal maps of the three processors.

Panels (a-c) show each processor running its own *worst-case* application
(the paper found mpeg2 worst for the planar and 3D-no-herding processors
and yacr2 worst for the Thermal Herding processor): peak 360 K at the
instruction scheduler for 2D, 377 K (+17 K) for 3D without herding, and
372 K (+12 K, at the data cache) with Thermal Herding — a 29 % reduction
of the 3D temperature increase.  Panels (d-f) rerun a single application
on all three processors; the ROB (holding mostly low-width values) ends
up ~5 K *cooler* than planar under Thermal Herding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.context import (
    ExperimentContext,
    ExperimentSettings,
    REFERENCE_BENCHMARK,
)
from repro.experiments.plan import Requirements, Resolved, run_section
from repro.thermal.solver import ThermalResult

PAPER_TH_REDUCTION = 0.29

#: Candidate worst-case applications probed per configuration (the full
#: 106-trace sweep is summarized by the highest-power candidates).
WORST_CASE_CANDIDATES = ("mpeg2", "adpcm", "susan", "yacr2", "crafty", "g721")


@dataclass
class Figure10Result:
    """Worst-case and fixed-application thermal analyses."""

    #: config label -> (worst benchmark, thermal result)
    worst_case: Dict[str, Tuple[str, ThermalResult]]
    #: config label -> thermal result for the fixed reference application
    fixed_app: Dict[str, ThermalResult]
    fixed_benchmark: str

    @property
    def peak_2d(self) -> float:
        return self.worst_case["Base"][1].peak_temperature

    @property
    def delta_no_herding(self) -> float:
        return self.worst_case["3D-noTH"][1].peak_temperature - self.peak_2d

    @property
    def delta_herding(self) -> float:
        return self.worst_case["3D"][1].peak_temperature - self.peak_2d

    @property
    def herding_delta_reduction(self) -> float:
        """Fraction of the 3D temperature increase removed by herding."""
        if self.delta_no_herding <= 0:
            return 0.0
        return 1.0 - self.delta_herding / self.delta_no_herding

    def rob_delta_vs_planar(self) -> float:
        """Fixed-app ROB peak: 3D Thermal Herding minus planar (K)."""
        planar = self.fixed_app["Base"]
        herding = self.fixed_app["3D"]
        planar_rob = max(
            t for (name, _die), t in planar.block_peak.items() if name.endswith(".rob")
        )
        herding_rob = max(
            t for (name, _die), t in herding.block_peak.items() if name.endswith(".rob")
        )
        return herding_rob - planar_rob

    def format(self) -> str:
        lines = ["Figure 10 (a-c): worst-case thermal maps"]
        paper = {
            "Base": f"paper 360 K (scheduler)",
            "3D-noTH": f"paper 377 K (+17)",
            "3D": f"paper 372 K (+12, data cache)",
        }
        for label in ("Base", "3D-noTH", "3D"):
            benchmark, result = self.worst_case[label]
            name, die, temp = result.hottest_block()
            delta = result.peak_temperature - self.peak_2d
            delta_txt = f" (+{delta:.1f} K)" if label != "Base" else ""
            lines.append(
                f"  {label:<8s} {result.peak_temperature:6.1f} K{delta_txt}  "
                f"worst app {benchmark}, hottest {name} die {die}; {paper[label]}"
            )
        lines.append(
            f"herding removes {self.herding_delta_reduction:.0%} of the 3D increase "
            f"(paper: {PAPER_TH_REDUCTION:.0%})"
        )
        lines.append(f"Figure 10 (d-f): {self.fixed_benchmark} on all three processors")
        for label in ("Base", "3D-noTH", "3D"):
            result = self.fixed_app[label]
            name, die, temp = result.hottest_block()
            lines.append(
                f"  {label:<8s} peak {result.peak_temperature:6.1f} K  hottest {name} die {die}"
            )
        lines.append(
            f"ROB with herding vs planar: {self.rob_delta_vs_planar():+.1f} K "
            f"(paper: -5 K)"
        )
        return "\n".join(lines)


#: The three processors of panels (a-c) and (d-f).
LABELS = ("Base", "3D-noTH", "3D")


def requirements(
    settings: ExperimentSettings,
    candidates: Optional[List[str]] = None,
) -> Requirements:
    """Every candidate's and the fixed app's maps on the three processors."""
    available = settings.benchmark_list()
    probe = [c for c in (candidates or WORST_CASE_CANDIDATES) if c in available]
    if not probe:
        probe = available[:3]
    fixed = REFERENCE_BENCHMARK if REFERENCE_BENCHMARK in available else probe[0]
    pairs = ([(benchmark, label) for label in LABELS for benchmark in probe]
             + [(fixed, label) for label in LABELS])

    def render(results: Resolved) -> Figure10Result:
        return _render(results.solved, probe, fixed)

    return Requirements(
        render=render,
        runs=pairs + [(REFERENCE_BENCHMARK, "Base")],
        # One batched solve per stack covers every candidate map.
        solve=lambda context: context.thermal_many(pairs),
    )


def _render(maps, probe: List[str], fixed: str) -> Figure10Result:
    worst_case: Dict[str, Tuple[str, ThermalResult]] = {}
    for label in LABELS:
        best: Optional[Tuple[str, ThermalResult]] = None
        for benchmark in probe:
            result = maps[(benchmark, label)]
            if best is None or result.peak_temperature > best[1].peak_temperature:
                best = (benchmark, result)
        assert best is not None
        worst_case[label] = best

    fixed_app = {label: maps[(fixed, label)] for label in LABELS}
    return Figure10Result(
        worst_case=worst_case,
        fixed_app=fixed_app,
        fixed_benchmark=fixed,
    )


def run_figure10(
    context: Optional[ExperimentContext] = None,
    candidates: Optional[List[str]] = None,
) -> Figure10Result:
    """Find each configuration's worst-case app and solve the maps."""
    return run_section(context, requirements, candidates)
