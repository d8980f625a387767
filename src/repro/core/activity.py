"""Per-module, per-die switching activity accounting.

The power model needs, for every module, how many accesses occurred and
how many of them were confined to the top die (the essence of Thermal
Herding).  ``dies`` below always refers to the 4-die stack; die 0 is the
top die, adjacent to the heat sink.
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

    def record(self, dies_active: int = NUM_DIES, count: int = 1) -> None:
        """Record ``count`` accesses touching the top ``dies_active`` dies."""
        if not 1 <= dies_active <= NUM_DIES:
            raise ValueError(f"dies_active must be in [1, {NUM_DIES}], got {dies_active}")
        self.total += count
        per_die = self.per_die
        if dies_active == 1:
            self.top_only += count
            per_die[0] += count
        else:
            for die in range(dies_active):
                per_die[die] += count

    def record_die(self, die: int, count: int = 1) -> None:
        """Record ``count`` accesses on a specific die only."""
        if not 0 <= die < NUM_DIES:
            raise ValueError(f"die must be in [0, {NUM_DIES}), got {die}")
        self.total += count
        if die == 0:
            self.top_only += count
        self.per_die[die] += count

    @property
    def herded_fraction(self) -> float:
        """Fraction of accesses confined to the top die."""
        return self.top_only / self.total if self.total else 0.0

    @property
    def die_activity_fraction(self) -> List[float]:
        """Per-die activity normalized to total accesses."""
        if not self.total:
            return [0.0] * NUM_DIES
        return [c / self.total for c in self.per_die]


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

    def record(self, name: str, dies_active: int = NUM_DIES, count: int = 1) -> None:
        # Hot path: inlines ModuleActivity.record (same arithmetic) because
        # the simulator calls this once or more per instruction.
        activity = self._modules.get(name)
        if activity is None:
            activity = ModuleActivity()
            self._modules[name] = activity
        if not 1 <= dies_active <= NUM_DIES:
            raise ValueError(f"dies_active must be in [1, {NUM_DIES}], got {dies_active}")
        activity.total += count
        per_die = activity.per_die
        if dies_active == 1:
            activity.top_only += count
            per_die[0] += count
        else:
            for die in range(dies_active):
                per_die[die] += count

    def modules(self) -> Dict[str, ModuleActivity]:
        """All recorded modules (live view)."""
        return self._modules

    def clear(self) -> None:
        """Drop all recorded activity (used at the warmup boundary)."""
        self._modules.clear()

    def total_accesses(self) -> int:
        return sum(m.total for m in self._modules.values())

    def merged_with(self, other: "ActivityCounters") -> "ActivityCounters":
        """A new counter set combining self and other (for multi-core runs)."""
        merged = ActivityCounters()
        for source in (self, other):
            for name, activity in source.modules().items():
                target = merged.module(name)
                target.total += activity.total
                target.top_only += activity.top_only
                for die in range(NUM_DIES):
                    target.per_die[die] += activity.per_die[die]
        return merged
