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
    TransientRequest,
)
from repro.experiments.plan import PoolWork, Requirements, Resolved, run_section
from repro.power.model import StackKind
from repro.thermal.power_map import build_power_map, rasterize
from repro.thermal.transient import ConstantPower, TransientResult

#: (label, stack, configuration) of each step, planar first.
_STEPS = (("planar", StackKind.PLANAR_2D, "Base"),
          ("3D-TH", StackKind.STACKED_3D, "3D"))


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
    plan = context.floorplan(stack_kind)
    watts = build_power_map(plan, [breakdown] * CORE_COUNT)
    ny, nx = context.solver(stack_kind).chip_grid_shape()
    return rasterize(plan, watts, nx, ny)


def _step_response(label: str, ambient_k: float, steady,
                   response: TransientResult) -> StepResponse:
    target = ambient_k + 0.9 * (steady.peak_temperature - ambient_k)
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
    """The benchmark's planar and 3D steps: each stack's steady anchor
    and its step from ambient, a constant-power transient run."""

    def pool(context: ExperimentContext, traces) -> PoolWork:
        work = PoolWork()
        for _label, stack, config in _STEPS:
            grids = _rasterized_step(context, stack,
                                     context.power(benchmark, config))
            work.groups.append((context.solver(stack), [grids]))
            work.requests.append(TransientRequest(
                stack=stack, schedule=ConstantPower(grids), dt_s=dt_s,
                duration_s=duration_s,
            ))
        return work

    def render(results: Resolved) -> TransientResponseResult:
        steadies, outcomes = results.pool()
        planar, stacked = [
            _step_response(label,
                           results.context.solver(stack).stack.ambient_k,
                           steady, response)
            for (label, stack, _), (steady,), (response, _) in zip(
                _STEPS, steadies, outcomes)
        ]
        return TransientResponseResult(planar=planar, stacked=stacked)

    return Requirements(
        render=render,
        runs=[(benchmark, "Base"), (benchmark, "3D"),
              (REFERENCE_BENCHMARK, "Base")],
        pool=pool,
    )


def run_transient_response(
    context: Optional[ExperimentContext] = None,
    benchmark: str = REFERENCE_BENCHMARK,
    dt_s: float = 20e-3,
    duration_s: float = 20.0,
) -> TransientResponseResult:
    """Measure the 90 % step-response time of both stacks."""
    return run_section(context, requirements, benchmark, dt_s, duration_s)
