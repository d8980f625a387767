"""Per-module power integration.

``P_module = E_access x accesses x scale / runtime``, evaluated per die
for 3D stacks so the thermal model sees where the heat actually lands.
Die 0 is the top die (adjacent to the heat sink).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.circuits.blocks import BlockModel, build_block_models
from repro.core.activity import NUM_DIES, ActivityCounters, ModuleActivity
from repro.cpu.results import SimulationResult

#: Activity-module -> circuit-block mapping (identity unless listed).
_BLOCK_FOR_MODULE = {
    "alu": "int_adder",
    "scheduler": "wakeup_select_loop",
}
#: Activity modules that are not on-chip consumers.
_EXCLUDED_MODULES = frozenset({"dram"})

#: Paper assumptions (Section 4).
BASELINE_CLOCK_FRACTION = 0.35
BASELINE_LEAKAGE_FRACTION = 0.20
CLOCK_3D_POWER_FACTOR = 0.5
#: Figure 9: two mpeg2 instances on two cores dissipate 90 W total.
BASELINE_TOTAL_WATTS = 90.0
BASELINE_CORE_WATTS = BASELINE_TOTAL_WATTS / 2.0


class StackKind(enum.Enum):
    """Whether a run is evaluated as the planar die or the 4-die stack."""

    PLANAR_2D = "2d"
    STACKED_3D = "3d"


@dataclass
class ModulePower:
    """Power of one module, with per-die attribution for 3D stacks."""

    name: str
    watts: float
    per_die: List[float]


@dataclass
class PowerBreakdown:
    """Complete power picture of one core for one run."""

    benchmark: str
    config_name: str
    stack: StackKind
    clock_ghz: float
    modules: Dict[str, ModulePower]
    clock_watts: float
    leakage_watts: float

    @property
    def dynamic_watts(self) -> float:
        return sum(m.watts for m in self.modules.values())

    @property
    def total_watts(self) -> float:
        return self.dynamic_watts + self.clock_watts + self.leakage_watts

    def format(self) -> str:
        lines = [
            f"{self.benchmark} [{self.config_name}] {self.stack.value} "
            f"@ {self.clock_ghz:.2f} GHz"
        ]
        for name, module in sorted(self.modules.items(), key=lambda kv: -kv[1].watts):
            lines.append(f"  {name:<18s} {module.watts:7.3f} W")
        lines.append(f"  {'clock network':<18s} {self.clock_watts:7.3f} W")
        lines.append(f"  {'leakage':<18s} {self.leakage_watts:7.3f} W")
        lines.append(f"  {'TOTAL':<18s} {self.total_watts:7.3f} W")
        return "\n".join(lines)


class PowerModel:
    """Evaluates :class:`SimulationResult` activity into watts.

    Parameters
    ----------
    activity_scale:
        Global multiplier mapping modelled per-access energies onto the
        paper's absolute power scale; obtain it from
        :func:`calibrate_activity_scale` against the baseline mpeg2 run.
    """

    def __init__(
        self,
        blocks: Optional[Dict[str, BlockModel]] = None,
        activity_scale: float = 1.0,
        baseline_core_watts: float = BASELINE_CORE_WATTS,
        baseline_clock_ghz: float = 2.66,
    ):
        if activity_scale <= 0:
            raise ValueError(f"activity_scale must be positive, got {activity_scale}")
        self.blocks = blocks if blocks is not None else build_block_models()
        self.activity_scale = activity_scale
        self.baseline_core_watts = baseline_core_watts
        self.baseline_clock_ghz = baseline_clock_ghz
        self.clock_watts_2d = BASELINE_CLOCK_FRACTION * baseline_core_watts
        self.leakage_watts = BASELINE_LEAKAGE_FRACTION * baseline_core_watts

    # ------------------------------------------------------------------ #

    def _module_power(
        self,
        name: str,
        activity: ModuleActivity,
        stack: StackKind,
        time_ns: float,
    ) -> ModulePower:
        block = self.blocks[_BLOCK_FOR_MODULE.get(name, name)]
        timing = block.timing
        scale = self.activity_scale / time_ns * 1e-3  # pJ/ns -> W
        if stack is StackKind.PLANAR_2D:
            watts = timing.energy_2d_pj * activity.total * scale
            return ModulePower(name=name, watts=watts, per_die=[watts])
        # 3D: a full-stack access spreads its energy evenly over the dies;
        # a herded (top-die-only) access deposits the top-die energy on
        # die 0 alone.
        full_share = timing.energy_3d_pj / NUM_DIES
        top_only = activity.top_only
        per_die = []
        for die in range(NUM_DIES):
            touches = activity.per_die[die]
            if die == 0:
                energy_pj = (
                    top_only * timing.energy_3d_top_pj
                    + max(touches - top_only, 0) * full_share
                )
            else:
                energy_pj = touches * full_share
            per_die.append(energy_pj * scale)
        return ModulePower(name=name, watts=sum(per_die), per_die=per_die)

    def _clock_watts(self, stack: StackKind, clock_ghz: float) -> float:
        watts = self.clock_watts_2d * clock_ghz / self.baseline_clock_ghz
        if stack is StackKind.STACKED_3D:
            watts *= CLOCK_3D_POWER_FACTOR
        return watts

    def _breakdown(self, result: SimulationResult, activity: ActivityCounters,
                   stack: StackKind, time_ns: float) -> PowerBreakdown:
        """Power of ``result``'s core for ``activity`` spread over
        ``time_ns``: one interval of the run, or all of it."""
        modules: Dict[str, ModulePower] = {}
        for name, module_activity in activity.modules().items():
            if name in _EXCLUDED_MODULES or not module_activity.total:
                continue
            modules[name] = self._module_power(
                name, module_activity, stack, time_ns
            )
        return PowerBreakdown(
            benchmark=result.benchmark,
            config_name=result.config_name,
            stack=stack,
            clock_ghz=result.clock_ghz,
            modules=modules,
            clock_watts=self._clock_watts(stack, result.clock_ghz),
            leakage_watts=self.leakage_watts,
        )

    def evaluate(self, result: SimulationResult, stack: StackKind) -> PowerBreakdown:
        """Power of one core for one simulation run."""
        time_ns = result.time_ns
        if time_ns <= 0:
            raise ValueError("simulation result has non-positive runtime")
        return self._breakdown(result, result.activity, stack, time_ns)

    def evaluate_intervals(
        self, result: SimulationResult, series, stack: StackKind
    ) -> List[PowerBreakdown]:
        """Per-interval power breakdowns from an interval activity series.

        ``series`` is an
        :class:`~repro.cpu.wavefront.IntervalActivitySeries` produced for
        ``result``'s run.  Each interval goes through the same breakdown
        as :meth:`evaluate`, with the interval's own runtime
        (:meth:`~repro.cpu.wavefront.IntervalActivitySeries.time_ns`),
        so the one-interval series reproduces the aggregate breakdown.
        """
        return [
            self._breakdown(result, activity, stack, time_ns)
            for activity, time_ns in zip(
                series.counters, series.time_ns(result.clock_ghz).tolist()
            )
        ]


def calibrate_activity_scale(
    reference: SimulationResult,
    blocks: Optional[Dict[str, BlockModel]] = None,
    baseline_core_watts: float = BASELINE_CORE_WATTS,
) -> float:
    """Activity scale that puts the reference run on the paper's scale.

    ``reference`` should be the baseline (planar, 2.66 GHz) run of the
    peak-power application (mpeg2): the paper's 90 W for two cores means
    45 W per core, of which 45 % is non-clock dynamic power.
    """
    target_dynamic = baseline_core_watts * (
        1.0 - BASELINE_CLOCK_FRACTION - BASELINE_LEAKAGE_FRACTION
    )
    raw_model = PowerModel(blocks=blocks, activity_scale=1.0,
                           baseline_core_watts=baseline_core_watts)
    raw_dynamic = raw_model.evaluate(reference, StackKind.PLANAR_2D).dynamic_watts
    if raw_dynamic <= 0:
        raise ValueError("reference run produced no dynamic activity")
    return target_dynamic / raw_dynamic
