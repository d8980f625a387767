"""Dual-core chip model (the paper's two-core Figure 9/10 scenario).

The evaluation chip carries two cores over a shared L2.  The timing model
is per-core; sharing is modelled by capacity partitioning: when two cores
run concurrently, each sees half the shared L2 (the paper runs identical
instances on both cores, whose disjoint address spaces split the cache
symmetrically).  The result bundles both cores' runs for the power and
thermal models, which accept one breakdown per core — including
*heterogeneous* pairings, where the two cores run different applications
and the thermal map becomes asymmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.cpu.config import CPUConfig
from repro.cpu.pipeline import simulate
from repro.cpu.results import SimulationResult
from repro.isa.compiled import CompiledTrace


@dataclass
class DualCoreRun:
    """Both cores' simulation results."""

    core0: SimulationResult
    core1: SimulationResult

    @property
    def results(self) -> Tuple[SimulationResult, SimulationResult]:
        return self.core0, self.core1

    @property
    def throughput_ipns(self) -> float:
        """Chip throughput: combined instructions per nanosecond."""
        return self.core0.ipns + self.core1.ipns

    @property
    def slower_core_time_ns(self) -> float:
        """Wall-clock time of the longer-running core."""
        return max(self.core0.time_ns, self.core1.time_ns)

    def summary(self) -> str:
        return "\n".join([
            f"core0: {self.core0.summary()}",
            f"core1: {self.core1.summary()}",
            f"chip throughput: {self.throughput_ipns:.2f} IPns",
        ])


def simulate_dual_core(
    trace0: CompiledTrace,
    trace1: CompiledTrace,
    config: CPUConfig,
    warmup: int = 0,
    shared_l2: bool = True,
) -> DualCoreRun:
    """Run two traces on the two-core chip.

    With ``shared_l2`` (the default), each core is simulated against its
    capacity share of the L2 — half each, the symmetric-partition
    approximation for two concurrently active cores with disjoint
    working sets.
    """
    core_config = config
    if shared_l2:
        half = max(config.l2_size // 2, config.line_bytes * config.l2_assoc)
        core_config = replace(config, l2_size=half)
    return DualCoreRun(
        core0=simulate(trace0, core_config, warmup=warmup),
        core1=simulate(trace1, core_config, warmup=warmup),
    )
