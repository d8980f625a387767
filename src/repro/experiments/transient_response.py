"""Transient thermal response: how fast do hotspots form?

Dynamic thermal management reacts on the thermal time constant.  This
experiment applies a power step (idle -> the reference app's full power)
to the planar chip and the 3D stack and measures the time each takes to
close 90 % of the gap to its steady-state peak.  The 3D stack's thinned
dies carry far less heat capacity per watt, so its hotspots form faster —
DTM for stacked processors must react quicker, an operational corollary
of the paper's thermal analysis.
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
from repro.thermal.transient import TransientThermalSolver


@dataclass
class StepResponse:
    """One stack's response to the power step."""

    label: str
    steady_peak_k: float
    time_to_90pct_s: Optional[float]


@dataclass
class TransientResponseResult:
    """Planar vs 3D step responses."""

    planar: StepResponse
    stacked: StepResponse

    def format(self) -> str:
        def render(r: StepResponse) -> str:
            t90 = f"{r.time_to_90pct_s * 1e3:7.1f} ms" if r.time_to_90pct_s else "  (n/a)"
            return f"  {r.label:<8s} steady {r.steady_peak_k:6.1f} K, 90% rise in {t90}"
        lines = [
            "transient step response (idle -> full power)",
            render(self.planar),
            render(self.stacked),
        ]
        if self.planar.time_to_90pct_s and self.stacked.time_to_90pct_s:
            ratio = self.planar.time_to_90pct_s / self.stacked.time_to_90pct_s
            lines.append(
                f"the 3D stack heats {ratio:.1f}x faster: DTM must react sooner"
            )
        return "\n".join(lines)


def _rasterized_step(context: ExperimentContext, stack_kind: StackKind,
                     breakdown):
    """The per-die power grids of one stack's full-power step input."""
    solver = context.solver(stack_kind)
    plan = context.floorplan(stack_kind)
    watts = build_power_map(plan, [breakdown] * CORE_COUNT)
    ny, nx = solver.chip_grid_shape()
    return solver, rasterize(plan, watts, nx, ny)


def _step_response(
    context: ExperimentContext,
    label: str,
    solver,
    grids,
    steady,
    dt_s: float,
    duration_s: float,
) -> StepResponse:
    ambient = solver.stack.ambient_k
    target = ambient + 0.9 * (steady.peak_temperature - ambient)

    transient = TransientThermalSolver(solver, dt_s=dt_s)
    response = transient.run(lambda t: grids, duration_s=duration_s)
    return StepResponse(
        label=label,
        steady_peak_k=steady.peak_temperature,
        time_to_90pct_s=response.time_to_reach(target),
    )


def requirements(
    settings: ExperimentSettings,
    benchmark: str = REFERENCE_BENCHMARK,
    dt_s: float = 20e-3,
    duration_s: float = 20.0,
) -> Requirements:
    """The benchmark's planar and 3D steps, stepped in the parent."""
    return Requirements(
        render=lambda results: results.solved,
        runs=[(benchmark, "Base"), (benchmark, "3D"),
              (REFERENCE_BENCHMARK, "Base")],
        solve=lambda context: _solve(context, benchmark, dt_s, duration_s),
    )


def _solve(context: ExperimentContext, benchmark: str, dt_s: float,
           duration_s: float) -> TransientResponseResult:
    planar_solver, planar_grids = _rasterized_step(
        context, StackKind.PLANAR_2D, context.power(benchmark, "Base"))
    stacked_solver, stacked_grids = _rasterized_step(
        context, StackKind.STACKED_3D, context.power(benchmark, "3D"))
    # Both stacks' steady-state anchors solve in one engine dispatch; the
    # transient stepping itself stays in-process (it reuses the parent's
    # pre-factorized stepping matrix).
    steadies = context.solve_thermal_groups([
        (planar_solver, [planar_grids]), (stacked_solver, [stacked_grids]),
    ])
    planar = _step_response(
        context, "planar", planar_solver, planar_grids, steadies[0][0],
        dt_s, duration_s,
    )
    stacked = _step_response(
        context, "3D-TH", stacked_solver, stacked_grids, steadies[1][0],
        dt_s, duration_s,
    )
    return TransientResponseResult(planar=planar, stacked=stacked)


def run_transient_response(
    context: Optional[ExperimentContext] = None,
    benchmark: str = REFERENCE_BENCHMARK,
    dt_s: float = 20e-3,
    duration_s: float = 20.0,
) -> TransientResponseResult:
    """Measure the 90 % step-response time of both stacks."""
    return run_section(context, requirements, benchmark, dt_s, duration_s)
