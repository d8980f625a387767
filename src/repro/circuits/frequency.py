"""Clock frequency derivation from the two critical loops.

Section 5.1.1: the wakeup-select loop and the ALU+bypass loop determine
the achievable cycle time in both the planar and 3D designs.  The paper's
planar baseline runs at 2.66 GHz; the 3D design reaches 3.93 GHz (a 47.9 %
increase) because both loops lose a large fraction of their wire delay.

We derive frequencies the same way: cycle time = max(loop latencies); the
model constants in :mod:`repro.circuits.blocks` put the planar loops at
~376 ps (2.66 GHz at 65 nm), so the derived planar frequency lands on the
paper's baseline without an explicit fudge factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict

from repro.circuits.blocks import BlockModel, build_block_models

#: The loops that bound cycle time (bold rows of Table 2).
CRITICAL_LOOP_NAMES = ("wakeup_select_loop", "alu_bypass_loop")


@dataclass(frozen=True)
class CriticalLoops:
    """Latencies of the frequency-determining loops."""

    wakeup_select_2d_ps: float
    wakeup_select_3d_ps: float
    alu_bypass_2d_ps: float
    alu_bypass_3d_ps: float

    @property
    def cycle_2d_ps(self) -> float:
        return max(self.wakeup_select_2d_ps, self.alu_bypass_2d_ps)

    @property
    def cycle_3d_ps(self) -> float:
        return max(self.wakeup_select_3d_ps, self.alu_bypass_3d_ps)


@dataclass(frozen=True)
class FrequencyPlan:
    """Derived clock frequencies for the evaluated configurations."""

    f2d_ghz: float
    f3d_ghz: float
    loops: CriticalLoops

    @property
    def speedup(self) -> float:
        """Clock frequency ratio 3D / 2D."""
        return self.f3d_ghz / self.f2d_ghz


def extract_loops(blocks: Dict[str, BlockModel]) -> CriticalLoops:
    """Pull the two critical loops out of the block set."""
    missing = [name for name in CRITICAL_LOOP_NAMES if name not in blocks]
    if missing:
        raise KeyError(f"block set is missing critical loops: {missing}")
    ws = blocks["wakeup_select_loop"].timing
    ab = blocks["alu_bypass_loop"].timing
    return CriticalLoops(
        wakeup_select_2d_ps=ws.latency_2d_ps,
        wakeup_select_3d_ps=ws.latency_3d_ps,
        alu_bypass_2d_ps=ab.latency_2d_ps,
        alu_bypass_3d_ps=ab.latency_3d_ps,
    )


def derive_frequencies(blocks: Dict[str, BlockModel] = None) -> FrequencyPlan:
    """Compute the planar and 3D clock frequencies from the loop models.

    Without ``blocks``, the plan of the default circuit models, derived
    once per process (:class:`FrequencyPlan` is frozen, so every caller
    may share it).  Explicit ``blocks`` are derived on every call.
    """
    if blocks is None:
        return _default_plan()
    loops = extract_loops(blocks)
    f2d = 1e3 / loops.cycle_2d_ps  # ps -> GHz
    f3d = 1e3 / loops.cycle_3d_ps
    return FrequencyPlan(f2d_ghz=f2d, f3d_ghz=f3d, loops=loops)


@functools.lru_cache(maxsize=None)
def _default_plan() -> FrequencyPlan:
    return derive_frequencies(build_block_models())
