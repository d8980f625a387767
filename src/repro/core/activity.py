"""Per-module, per-die switching activity accounting.

The power model needs, for every module, how many accesses occurred and
how many of them were confined to the top die (the essence of Thermal
Herding).  ``dies`` below always refers to the 4-die stack; die 0 is the
top die, adjacent to the heat sink.

One table of rules fills these records,
:meth:`repro.cpu.wavefront.WavefrontPlan.activity`, for each interval of
a run.  A run's counters are its one-interval case
(:meth:`~repro.cpu.wavefront.WavefrontPlan.build_activity`), and
interval power extraction applies the same rules to N-instruction
intervals.  Most modules are touched either on the top die alone or on
all four dies, while the split direction predictor and the
entry-stacked scheduler count each die separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: Number of dies in the stack (the paper's design point).
NUM_DIES = 4


@dataclass
class ModuleActivity:
    """Access counts of one module, split by how many dies were active."""

    #: total accesses
    total: int = 0
    #: accesses confined to the top die (Thermal Herding success cases)
    top_only: int = 0
    #: per-die access counts; full-stack accesses increment every die
    per_die: List[int] = field(default_factory=lambda: [0] * NUM_DIES)

    @property
    def herded_fraction(self) -> float:
        """Fraction of accesses confined to the top die."""
        return self.top_only / self.total if self.total else 0.0


class ActivityCounters:
    """Activity for all modules of one simulated core."""

    def __init__(self) -> None:
        self._modules: Dict[str, ModuleActivity] = {}

    def module(self, name: str) -> ModuleActivity:
        """The activity record for ``name``, created on first use."""
        activity = self._modules.get(name)
        if activity is None:
            activity = ModuleActivity()
            self._modules[name] = activity
        return activity

    def modules(self) -> Dict[str, ModuleActivity]:
        """All recorded modules (live view)."""
        return self._modules
