"""Heterogeneous core pairing: thermal-aware workload placement.

The paper's chip carries two cores.  Its figures run the same application
on both; this extension pairs *different* applications and shows that
co-scheduling a hot compute-bound app with a cool memory-bound app lowers
the chip's worst-case temperature versus two hot instances — the
scheduling-level complement to microarchitectural herding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.cpu.multicore import DualCoreRun
from repro.experiments.context import (
    ExperimentContext,
    ExperimentSettings,
    REFERENCE_BENCHMARK,
    _all_configurations,
)
from repro.experiments.plan import Requirements, run_section
from repro.power.model import StackKind
from repro.thermal.solver import ThermalResult

#: Default pairings: hot+hot, hot+cool, cool+cool.
DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("mpeg2", "mpeg2"),
    ("mpeg2", "mcf"),
    ("mcf", "mcf"),
)


@dataclass
class PairingPoint:
    """One pairing's chip-level outcome."""

    pair: Tuple[str, str]
    throughput_ipns: float
    chip_watts: float
    peak_k: float
    hottest_block: str


@dataclass
class PairingResult:
    """All evaluated pairings (3D Thermal Herding processor)."""

    points: List[PairingPoint]

    def by_pair(self) -> Dict[Tuple[str, str], PairingPoint]:
        return {p.pair: p for p in self.points}

    def format(self) -> str:
        lines = [
            "core pairing on the 3D Thermal Herding chip",
            f"{'pair':<18s} {'IPns':>6s} {'chip W':>8s} {'peak K':>8s}  hottest",
        ]
        for p in self.points:
            label = "+".join(p.pair)
            lines.append(
                f"{label:<18s} {p.throughput_ipns:6.2f} {p.chip_watts:8.1f} "
                f"{p.peak_k:8.1f}  {p.hottest_block}"
            )
        return "\n".join(lines)


def requirements(
    settings: ExperimentSettings,
    pairs: Tuple[Tuple[str, str], ...] = DEFAULT_PAIRS,
) -> Requirements:
    """Every paired app on a half-L2 3D core, and the pairings' maps."""
    config = _all_configurations()["3D"]
    # Each active core sees half the shared L2 (simulate_dual_core's
    # symmetric-partition model); runs go through the context so they are
    # parallelized, memoized, and persisted like every other simulation.
    half = max(config.l2_size // 2, config.line_bytes * config.l2_assoc)
    core_config = replace(config, l2_size=half, name=f"{config.name}-halfl2")
    members = sorted({name for pair in pairs for name in pair})
    return Requirements(
        render=lambda results: results.solved,
        # The reference run anchors the power-model calibration.
        runs=[(REFERENCE_BENCHMARK, "Base")]
        + [(name, core_config) for name in members],
        solve=lambda context: _solve(context, pairs, core_config),
    )


def _solve(context: ExperimentContext, pairs, core_config) -> PairingResult:
    model = context.power_model()

    runs = [
        DualCoreRun(
            core0=context.run_config(pair[0], core_config),
            core1=context.run_config(pair[1], core_config),
        )
        for pair in pairs
    ]
    pair_breakdowns = [
        [model.evaluate(result, StackKind.STACKED_3D) for result in run.results]
        for run in runs
    ]
    # One batched dispatch: every pairing shares the 3D geometry, so all
    # maps solve against a single factorization.
    thermals: List[ThermalResult] = context.thermal_grouped({
        StackKind.STACKED_3D: [(breakdowns, 1.0)
                               for breakdowns in pair_breakdowns],
    })[StackKind.STACKED_3D]
    points: List[PairingPoint] = []
    for pair, run, breakdowns, thermal in zip(pairs, runs, pair_breakdowns,
                                              thermals):
        name, die, _ = thermal.hottest_block()
        points.append(
            PairingPoint(
                pair=pair,
                throughput_ipns=run.throughput_ipns,
                chip_watts=sum(b.total_watts for b in breakdowns),
                peak_k=thermal.peak_temperature,
                hottest_block=f"{name} (die {die})",
            )
        )
    return PairingResult(points=points)


def run_pairing(
    context: Optional[ExperimentContext] = None,
    pairs: Tuple[Tuple[str, str], ...] = DEFAULT_PAIRS,
) -> PairingResult:
    """Evaluate each pairing's power and thermals on the 3D processor."""
    return run_section(context, requirements, pairs)
