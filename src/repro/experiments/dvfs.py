"""Frequency-for-temperature trading (Section 5.3's closing observation).

The paper notes (citing Black et al.) that part of the 3D performance
gain can be converted into power reduction to cut temperature further.
This experiment sweeps the 3D Thermal Herding processor's clock between
the planar baseline frequency and the full 3D frequency, evaluating
performance, power, and peak temperature at each point — including the
largest 3D frequency that stays within the planar thermal envelope.

Voltage is scaled with frequency (f ~ V over the relevant range), so
dynamic power follows the classic ~f^3 curve between the endpoints while
leakage stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.experiments.context import (
    CORE_COUNT,
    ExperimentContext,
    ExperimentSettings,
    REFERENCE_BENCHMARK,
    _all_configurations,
)
from repro.experiments.plan import Requirements, run_section
from repro.power.model import StackKind


@dataclass
class DVFSPoint:
    """One frequency point of the sweep."""

    clock_ghz: float
    voltage_scale: float
    ipns: float
    chip_watts: float
    peak_k: float


@dataclass
class DVFSResult:
    """The sweep plus the derived iso-temperature operating point."""

    benchmark: str
    points: List[DVFSPoint]
    planar_peak_k: float
    planar_ipns: float

    def best_within_planar_envelope(self) -> Optional[DVFSPoint]:
        """Fastest point not exceeding the planar peak temperature."""
        within = [p for p in self.points if p.peak_k <= self.planar_peak_k]
        if not within:
            return None
        return max(within, key=lambda p: p.ipns)

    def format(self) -> str:
        lines = [
            f"DVFS sweep of the 3D TH processor ({self.benchmark}); "
            f"planar envelope {self.planar_peak_k:.1f} K",
            f"{'GHz':>6s} {'Vscale':>7s} {'IPns':>6s} {'chip W':>8s} {'peak K':>8s} {'speedup':>8s}",
        ]
        for p in self.points:
            lines.append(
                f"{p.clock_ghz:6.2f} {p.voltage_scale:7.2f} {p.ipns:6.2f} "
                f"{p.chip_watts:8.1f} {p.peak_k:8.1f} {p.ipns / self.planar_ipns:7.2f}x"
            )
        best = self.best_within_planar_envelope()
        if best is None:
            lines.append("no sweep point fits the planar thermal envelope")
        else:
            lines.append(
                f"iso-temperature point: {best.clock_ghz:.2f} GHz, "
                f"{best.ipns / self.planar_ipns:.2f}x planar performance at "
                f"{best.peak_k:.1f} K"
            )
        return "\n".join(lines)


def requirements(
    settings: ExperimentSettings,
    benchmark: str = REFERENCE_BENCHMARK,
    steps: int = 5,
) -> Requirements:
    """The benchmark at ``steps`` 3D clocks from the 2D to the 3D frequency."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    configs = _all_configurations()
    config_3d = configs["3D"]
    f_low = configs["Base"].clock_ghz
    f_high = config_3d.clock_ghz
    clocks = [
        f_low + (f_high - f_low) * step / (steps - 1) for step in range(steps)
    ]
    sweep_configs = [replace(config_3d, clock_ghz=round(c, 3)) for c in clocks]
    return Requirements(
        render=lambda results: results.solved,
        runs=[(benchmark, "Base"), (REFERENCE_BENCHMARK, "Base")]
        + [(benchmark, config) for config in sweep_configs],
        solve=lambda context: _solve(context, benchmark, clocks,
                                     sweep_configs, f_high),
    )


def _solve(context: ExperimentContext, benchmark: str, clocks,
           sweep_configs, f_high: float) -> DVFSResult:
    model = context.power_model()

    base_run = context.run(benchmark, "Base")
    planar_breakdown = model.evaluate(base_run, StackKind.PLANAR_2D)

    # Collect every sweep point's thermal request first, then submit the
    # planar envelope and the whole 3D sweep as one engine dispatch.
    sweep: List[tuple] = []
    for clock, config in zip(clocks, sweep_configs):
        run = context.run_config(benchmark, config)
        breakdown = model.evaluate(run, StackKind.STACKED_3D)
        # Voltage tracks frequency: dynamic components gain f^2 through V^2
        # on top of the f they already carry via the activity rate.
        voltage_scale = clock / f_high
        scaled_modules = voltage_scale ** 2
        dynamic = breakdown.dynamic_watts * scaled_modules
        clock_watts = breakdown.clock_watts * scaled_modules
        total = dynamic + clock_watts + breakdown.leakage_watts
        power_scale = total / breakdown.total_watts
        sweep.append((clock, voltage_scale, run, total, breakdown, power_scale))
    solved = context.thermal_grouped({
        StackKind.PLANAR_2D: [([planar_breakdown] * CORE_COUNT, 1.0)],
        StackKind.STACKED_3D: [
            ([breakdown] * CORE_COUNT, power_scale)
            for _, _, _, _, breakdown, power_scale in sweep
        ],
    })
    planar_thermal = solved[StackKind.PLANAR_2D][0]

    points = [
        DVFSPoint(
            clock_ghz=clock,
            voltage_scale=voltage_scale,
            ipns=run.ipns,
            chip_watts=CORE_COUNT * total,
            peak_k=thermal.peak_temperature,
        )
        for (clock, voltage_scale, run, total, _, _), thermal
        in zip(sweep, solved[StackKind.STACKED_3D])
    ]
    return DVFSResult(
        benchmark=benchmark,
        points=points,
        planar_peak_k=planar_thermal.peak_temperature,
        planar_ipns=base_run.ipns,
    )


def run_dvfs(
    context: Optional[ExperimentContext] = None,
    benchmark: str = REFERENCE_BENCHMARK,
    steps: int = 5,
) -> DVFSResult:
    """Sweep the 3D processor clock from the 2D to the 3D frequency."""
    return run_section(context, requirements, benchmark, steps)
