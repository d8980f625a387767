"""Entry-stacked instruction scheduler allocation policy (Section 3.4).

The reservation stations are partitioned by entry across the four dies
(one quarter each).  ``TOP_FIRST`` fills the die closest to the heat sink
first, overflowing downward only when upper dies are full, so under
moderate occupancy all scheduler activity stays at the top of the
stack.  Tag broadcasts are gated per die: a die with no occupied entries
does not receive the broadcast, so a broadcast with ``k`` busy entries
wakes ``ceil(k / (entries / 4))`` dies, and one die (the bus stub) when
the scheduler is empty.

``ROUND_ROBIN`` is the ablation baseline: entries are spread evenly, so a
broadcast wakes ``min(k, 4)`` dies (one when empty), and the occupied
dies rotate by one on every broadcast instead of clustering at the heat
sink.

:meth:`repro.cpu.pipeline.TimingSimulator.run_compiled` applies the
policy at each result broadcast, counting the scheduler's busy entries
from its reservation-station free-at cycles.
"""

from __future__ import annotations

import enum


class AllocationPolicy(enum.Enum):
    """RS entry allocation policy across dies."""

    TOP_FIRST = "top_first"
    ROUND_ROBIN = "round_robin"
