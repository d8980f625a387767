"""The entry-stacked scheduler (Section 3.4), as the timing core
computes it on tiny traces.

``_waiting(k)`` builds a divide whose result ``k`` consumers wait for in
the reservation stations; an independent shift placed after them
completes while all ``k`` entries are still busy, so its tag broadcast
sees an occupancy of ``k``.
"""

import pytest

from repro.core.activity import NUM_DIES
from repro.core.scheduler_allocation import AllocationPolicy
from repro.cpu.pipeline import TimingSimulator
from repro.isa.opcodes import OpClass
from tests.tiny_traces import alu, base_config, run, th_config

RR = AllocationPolicy.ROUND_ROBIN


def _waiting(k):
    """A divide and ``k`` consumers of its result, at consecutive PCs
    (the next-line prefetcher keeps the fetch stream warm)."""
    divide = alu(0x1000, 1, srcs=(), dst=5, op=OpClass.FDIV)
    return [divide] + [alu(0x1004 + 4 * i, 1, srcs=(5,), dst=6) for i in range(k)]


def _after(trace, srcs=()):
    """A shift at the PC following ``trace``.  Units are reserved in
    program order, so it runs on the shifters, which the consumers
    ahead of it leave free."""
    last_pc = trace[-1][0]  # a row's first field is its pc
    return alu(last_pc + 4, 1, srcs=srcs, dst=7, op=OpClass.ISHIFT)


def _scheduler(trace, policy=AllocationPolicy.TOP_FIRST, rs_size=32):
    config = th_config(scheduler_policy=policy, rs_size=rs_size)
    return run(trace, config).activity.modules()["scheduler"].per_die


def last_broadcast(k, policy=AllocationPolicy.TOP_FIRST, rs_size=32):
    """Per-die wakeups of one broadcast made while ``k`` entries wait."""
    trace = _waiting(k)
    before = _scheduler(trace, policy, rs_size)
    after = _scheduler(trace + [_after(trace)], policy, rs_size)
    return [a - b for a, b in zip(after, before)]


class TestConstruction:
    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError, match="rs_size"):
            TimingSimulator(th_config(rs_size=30))
        # Without herding the stations are not split across dies.
        TimingSimulator(base_config(rs_size=30))

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="rs_size"):
            TimingSimulator(th_config(rs_size=0))


class TestAllocateRelease:
    def test_top_first_fills_top_die(self):
        assert last_broadcast(8) == [1, 0, 0, 0]

    def test_top_first_overflows_downward(self):
        assert last_broadcast(10) == [1, 1, 0, 0]

    def test_full_scheduler_returns_none(self):
        # A full scheduler holds back dispatch until an entry frees.
        trace = _waiting(8)
        trace.append(_after(trace))
        small = run(trace, th_config(rs_size=4))
        large = run(trace, th_config(rs_size=32))
        assert small.cycles > large.cycles

    def test_round_robin_spreads(self):
        assert last_broadcast(8, RR) == [1, 1, 1, 1]

    def test_release_frees_entry(self):
        # Entries free as their instructions issue: once the consumers
        # have gone, a broadcast wakes only the top die's bus stub, even
        # with one entry per die.
        trace = _waiting(3)
        before = _scheduler(trace, rs_size=4)
        after = _scheduler(trace + [_after(trace, srcs=(6,))], rs_size=4)
        assert [a - b for a, b in zip(after, before)] == [1, 0, 0, 0]
        assert last_broadcast(3, rs_size=4) == [1, 1, 1, 0]


class TestOccupancyGeometry:
    def test_die_for_occupancy_top_first(self):
        # The k-th busy entry sits on die (k - 1) // 8 of a 32-entry RS.
        assert last_broadcast(1) == [1, 0, 0, 0]
        assert last_broadcast(8) == [1, 0, 0, 0]
        assert last_broadcast(9) == [1, 1, 0, 0]
        assert last_broadcast(25) == [1, 1, 1, 1]

    def test_die_for_occupancy_round_robin(self):
        assert sum(last_broadcast(1, RR)) == 1
        assert sum(last_broadcast(2, RR)) == 2
        assert sum(last_broadcast(5, RR)) == 4

    def test_occupancy_clamps(self):
        assert last_broadcast(28) == [1] * NUM_DIES

    def test_occupied_dies_top_first(self):
        assert sum(last_broadcast(0)) == 1   # bus stub
        assert sum(last_broadcast(1)) == 1
        assert sum(last_broadcast(8)) == 1
        assert sum(last_broadcast(9)) == 2
        assert sum(last_broadcast(25)) == 4

    def test_occupied_dies_round_robin(self):
        assert sum(last_broadcast(1, RR)) == 1
        assert sum(last_broadcast(3, RR)) == 3
        assert sum(last_broadcast(20, RR)) == 4


class TestBroadcastGating:
    def test_low_occupancy_broadcast_is_herded(self):
        assert last_broadcast(4) == [1, 0, 0, 0]

    def test_high_occupancy_hits_all_dies(self):
        assert sum(last_broadcast(28)) == NUM_DIES

    def test_round_robin_rotates_dies(self):
        trace = [alu(0x1000 + 4 * i, 1, srcs=(), dst=2) for i in range(4)]
        # A single occupied entry rotates, spreading power evenly.
        assert _scheduler(trace, RR) == [1, 1, 1, 1]
        assert _scheduler(trace) == [4, 0, 0, 0]

    def test_mean_dies_metric(self):
        trace = _waiting(20)
        trace.append(_after(trace))
        result = run(trace)
        broadcasts = len(trace)  # every op writes a register
        total = result.activity.modules()["scheduler"].total
        assert result.herding["scheduler_dies_per_broadcast"] == total / broadcasts
        assert total / broadcasts > 1.0

    def test_herding_beats_round_robin(self):
        """The ablation claim: TOP_FIRST keeps broadcasts high in the stack."""
        trace = _waiting(6)
        for _ in range(6):
            trace.append(_after(trace))
        fractions = {}
        for policy in AllocationPolicy:
            config = th_config(scheduler_policy=policy)
            scheduler = run(trace, config).activity.modules()["scheduler"]
            fractions[policy] = scheduler.herded_fraction
        assert fractions[AllocationPolicy.TOP_FIRST] > fractions[RR]
