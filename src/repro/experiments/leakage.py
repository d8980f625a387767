"""Leakage-temperature feedback applied to the three processors.

The paper budgets leakage at a flat 20 % of the baseline power.  With
temperature-dependent leakage (doubling every ~24 K), hot designs pay a
compounding tax: this experiment converges the electro-thermal fixed
point for the planar, 3D-without-herding, and 3D Thermal Herding
processors, reporting how much each design's leakage inflates beyond the
budget — herding's reduction of hotspot temperatures also buys leakage
headroom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.cache import leakage_key
from repro.experiments.context import (
    CORE_COUNT,
    ExperimentContext,
    ExperimentSettings,
    REFERENCE_BENCHMARK,
)
from repro.experiments.plan import Requirements, run_section
from repro.power.model import StackKind
from repro.thermal.feedback import (
    DEFAULT_EFOLD_K,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE_K,
    FeedbackResult,
    solve_with_leakage_feedback,
    uniform_leakage_grids,
)
from repro.thermal.power_map import build_power_map, rasterize

#: Leakage is budgeted at the paper's planar worst-case temperature.
LEAKAGE_REFERENCE_K = 360.0

CONFIG_LABELS = ("Base", "3D-noTH", "3D")


@dataclass
class LeakageFeedbackResult:
    """Fixed-point outcomes per configuration."""

    #: config label -> (fixed-leakage peak K, feedback peak K, amplification)
    outcomes: Dict[str, tuple]

    def format(self) -> str:
        lines = [
            f"leakage-temperature feedback (budget at {LEAKAGE_REFERENCE_K:.0f} K)",
            f"{'config':<8s} {'fixed K':>8s} {'coupled K':>10s} {'leak x':>7s}",
        ]
        for label in CONFIG_LABELS:
            fixed, coupled, amp = self.outcomes[label]
            lines.append(f"{label:<8s} {fixed:8.1f} {coupled:10.1f} {amp:7.2f}")
        base_amp = self.outcomes["Base"][2]
        noth_amp = self.outcomes["3D-noTH"][2]
        th_amp = self.outcomes["3D"][2]
        lines.append(
            f"herding's leakage headroom vs no-herding: "
            f"{(noth_amp - th_amp) / max(noth_amp, 1e-9):.1%}"
        )
        return "\n".join(lines)


def _fixed_point(context, solver, dynamic_grids, leak_grids) -> FeedbackResult:
    """One configuration's leakage fixed point, content-addressed in the
    result cache as a whole (one entry per fixed point, not per
    iteration)."""
    params = dict(
        reference_k=LEAKAGE_REFERENCE_K,
        efold_k=DEFAULT_EFOLD_K,
        max_iterations=DEFAULT_MAX_ITERATIONS,
        tolerance_k=DEFAULT_TOLERANCE_K,
    )
    key = None
    if context.cache is not None:
        key = leakage_key(solver, dynamic_grids, leak_grids, **params)
        cached = context.cache.load(key, FeedbackResult)
        if cached is not None:
            context.stats.leakage_disk_hits += 1
            return cached
    feedback = solve_with_leakage_feedback(
        solver, dynamic_grids, leak_grids, **params
    )
    if key is not None:
        context.cache.store(key, feedback)
    return feedback


def requirements(
    settings: ExperimentSettings,
    benchmark: str = REFERENCE_BENCHMARK,
) -> Requirements:
    """The benchmark on the three processors, with and without feedback."""
    return Requirements(
        render=lambda results: results.solved,
        runs=[(benchmark, label) for label in CONFIG_LABELS]
        + [(REFERENCE_BENCHMARK, "Base")],
        solve=lambda context: _solve(context, benchmark),
    )


def _solve(context: ExperimentContext, benchmark: str) -> LeakageFeedbackResult:
    outcomes: Dict[str, tuple] = {}
    for label in CONFIG_LABELS:
        stack_kind = StackKind.PLANAR_2D if label == "Base" else StackKind.STACKED_3D
        breakdown = context.power(benchmark, label)
        plan = context.floorplan(stack_kind)
        solver = context.solver(stack_kind)
        ny, nx = solver.chip_grid_shape()

        # Separate the leakage component so it can respond to temperature.
        leakage_total = CORE_COUNT * breakdown.leakage_watts
        dynamic_total = CORE_COUNT * (breakdown.total_watts - breakdown.leakage_watts)
        full = build_power_map(plan, [breakdown] * CORE_COUNT)
        full_grids = rasterize(plan, full, nx, ny)
        chip_total = sum(float(g.sum()) for g in full_grids)
        dynamic_grids = [
            g * (dynamic_total / chip_total) for g in full_grids
        ]
        leak_grids = uniform_leakage_grids(solver, leakage_total)

        fixed = context.solve_thermal_groups([
            (solver, [[d + l for d, l in zip(dynamic_grids, leak_grids)]])
        ])[0][0]
        feedback = _fixed_point(context, solver, dynamic_grids, leak_grids)
        outcomes[label] = (
            fixed.peak_temperature,
            feedback.result.peak_temperature,
            feedback.leakage_amplification,
        )
    return LeakageFeedbackResult(outcomes=outcomes)


def run_leakage_feedback(
    context: Optional[ExperimentContext] = None,
    benchmark: str = REFERENCE_BENCHMARK,
) -> LeakageFeedbackResult:
    """Converge the electro-thermal fixed point for each processor."""
    return run_section(context, requirements, benchmark)
