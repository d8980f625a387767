"""Processor configuration (Table 1) and the paper's five configurations.

Figure 8 evaluates:

* ``Base``  — the planar baseline at 2.66 GHz.
* ``TH``    — Thermal Herding techniques at the baseline frequency
  (isolates the IPC cost of width mispredictions).
* ``Pipe``  — the 3D pipeline optimizations at the baseline frequency
  (shorter branch-resolution pipeline, faster L2 in cycles).
* ``Fast``  — the baseline microarchitecture at the 3D clock frequency
  (isolates the IPC cost of relatively slower DRAM).
* ``3D``    — everything combined: Thermal Herding + pipeline
  optimizations + 3D clock frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

import enum

from repro.circuits.frequency import derive_frequencies
from repro.core.dcache_encoding import EncodingScheme
from repro.core.scheduler_allocation import AllocationPolicy


class WidthPredictorKind(enum.Enum):
    """Which width predictor drives the Thermal Herding datapath."""

    DYNAMIC = "dynamic"   # the paper's PC-indexed two-bit counters
    STATIC = "static"     # profile-based static hints (ablation)
    ORACLE = "oracle"     # always correct (upper bound)


@dataclass(frozen=True)
class CPUConfig:
    """All microarchitectural and feature parameters of one configuration."""

    name: str = "base"
    clock_ghz: float = 2.66

    # widths (Table 1)
    fetch_width: int = 4
    decode_width: int = 4
    commit_width: int = 4
    issue_width: int = 6

    # window sizes (Table 1)
    rob_size: int = 96
    rs_size: int = 32
    lq_size: int = 32
    sq_size: int = 20
    ifq_size: int = 16

    # functional units (Table 1)
    int_alu_units: int = 3
    int_shift_units: int = 2
    int_mul_units: int = 1
    fp_add_units: int = 1
    fp_mul_units: int = 1
    fp_div_units: int = 1
    load_store_ports: int = 1
    load_only_ports: int = 1

    # memory hierarchy (Table 1)
    l1i_size: int = 32 << 10
    l1i_assoc: int = 8
    l1d_size: int = 32 << 10
    l1d_assoc: int = 8
    line_bytes: int = 64
    l1_latency: int = 3
    l2_size: int = 4 << 20
    l2_assoc: int = 16
    l2_latency: int = 12
    dram_latency_ns: float = 100.0
    itlb_entries: int = 128
    dtlb_entries: int = 256
    tlb_assoc: int = 4
    tlb_miss_penalty: int = 30
    page_bytes: int = 4096
    #: outstanding DRAM misses (memory-level parallelism bound)
    mshr_entries: int = 8

    # front end (Table 1)
    btb_entries: int = 2048
    btb_assoc: int = 4
    ibtb_entries: int = 512
    ibtb_assoc: int = 4
    ras_depth: int = 16
    front_depth: int = 8          # fetch -> dispatch pipeline stages
    redirect_penalty: int = 4     # execute -> fetch redirect latency
    btb_miss_bubble: int = 2      # decode-computed target for direct branches

    # Thermal Herding features
    thermal_herding: bool = False
    width_predictor_entries: int = 4096
    width_counter_bits: int = 2
    width_predictor_kind: WidthPredictorKind = WidthPredictorKind.DYNAMIC
    dcache_encoding: EncodingScheme = EncodingScheme.TWO_BIT
    scheduler_policy: AllocationPolicy = AllocationPolicy.TOP_FIRST

    # 3D pipeline optimizations (Section 3.8)
    pipeline_optimized: bool = False

    def resolved(self) -> "CPUConfig":
        """Apply the pipeline-optimization deltas, returning a new config."""
        if not self.pipeline_optimized:
            return self
        return replace(
            self,
            l2_latency=max(self.l2_latency - 2, 1),
            front_depth=max(self.front_depth - 1, 1),
            redirect_penalty=max(self.redirect_penalty - 1, 1),
        )

    @property
    def dram_cycles(self) -> int:
        """Main memory latency in cycles at this configuration's clock."""
        return max(1, round(self.dram_latency_ns * self.clock_ghz))

    @property
    def branch_mispredict_min_cycles(self) -> int:
        """Minimum branch misprediction penalty (Table 1 reports 14)."""
        resolved = self.resolved()
        return resolved.front_depth + resolved.redirect_penalty + 2


@dataclass(frozen=True)
class ProcessorConfiguration:
    """A named configuration plus its role in the evaluation."""

    config: CPUConfig
    description: str = ""


def _derived_3d_clock() -> float:
    """The 3D clock frequency derived from the circuit models."""
    return derive_frequencies().f3d_ghz


def baseline_config() -> CPUConfig:
    """``Base``: the planar 2.66 GHz processor."""
    return CPUConfig(name="base", clock_ghz=2.66)


def thermal_herding_config() -> CPUConfig:
    """``TH``: Thermal Herding at the baseline clock (IPC isolation)."""
    return replace(baseline_config(), name="th", thermal_herding=True)


def pipeline_config() -> CPUConfig:
    """``Pipe``: 3D pipeline optimizations at the baseline clock."""
    return replace(baseline_config(), name="pipe", pipeline_optimized=True)


def fast_config() -> CPUConfig:
    """``Fast``: baseline microarchitecture at the 3D clock."""
    return replace(baseline_config(), name="fast", clock_ghz=round(_derived_3d_clock(), 2))


def full_3d_config() -> CPUConfig:
    """``3D``: Thermal Herding + pipeline optimizations + 3D clock."""
    return replace(
        baseline_config(),
        name="3d",
        clock_ghz=round(_derived_3d_clock(), 2),
        thermal_herding=True,
        pipeline_optimized=True,
    )


def paper_configurations() -> Dict[str, ProcessorConfiguration]:
    """The five configurations of Figure 8, keyed by their paper labels."""
    return {
        "Base": ProcessorConfiguration(baseline_config(), "planar baseline, 2.66 GHz"),
        "TH": ProcessorConfiguration(thermal_herding_config(), "Thermal Herding at 2.66 GHz"),
        "Pipe": ProcessorConfiguration(pipeline_config(), "pipeline optimizations at 2.66 GHz"),
        "Fast": ProcessorConfiguration(fast_config(), "baseline uarch at the 3D clock"),
        "3D": ProcessorConfiguration(full_3d_config(), "full 3D Thermal Herding processor"),
    }
