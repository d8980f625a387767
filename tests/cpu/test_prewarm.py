"""Tests for the steady-state L2 prewarm heuristic."""

import pytest

from repro.cpu.config import baseline_config
from repro.cpu.pipeline import TimingSimulator, simulate
from repro.cpu.predecode import predecode
from repro.isa.builder import TraceBuilder

HEAP = 0x2AAA_0000_0000


def hot_pool_trace(lines=64, passes=1, accesses=3000):
    """Random-ish revisits of a bounded pool (stationary hot set)."""
    builder = TraceBuilder("hot_pool")
    start = builder.next_pc
    for i in range(accesses):
        slot = (i * 17) % lines  # co-prime stride revisits every line
        builder.load(1, addr=HEAP + slot * 64, value=i & 0xFF, srcs=(2,))
        builder.alu(2, 1, srcs=(2,))
        last = i == accesses - 1
        builder.branch(taken=not last, target=None if last else start, srcs=(2,))
    return builder.build()


def single_pass_stream(accesses=3000, stride=192):
    """A never-revisited stream (steady state would miss too)."""
    builder = TraceBuilder("stream")
    start = builder.next_pc
    for i in range(accesses):
        builder.load(1, addr=HEAP + i * stride, value=i & 0xFF, srcs=(2,))
        builder.alu(2, 1, srcs=(2,))
        last = i == accesses - 1
        builder.branch(taken=not last, target=None if last else start, srcs=(2,))
    return builder.build()


def run(trace, prewarm):
    return TimingSimulator(baseline_config()).run_compiled(
        predecode(trace), prewarm=prewarm
    )


class TestPrewarm:
    def test_hot_pool_prewarmed(self):
        """A revisited pool's first touches hit the prewarmed L2."""
        trace = hot_pool_trace()
        result = simulate(trace, baseline_config())
        # With the pool resident, DRAM is never touched.
        assert result.activity.module("dram").total <= 2

    def test_stream_not_prewarmed(self):
        """A single-pass large-stride stream keeps missing to DRAM."""
        trace = single_pass_stream()
        result = simulate(trace, baseline_config())
        assert result.activity.module("dram").total > 100

    def test_prewarm_flag_off(self):
        trace = hot_pool_trace()
        on = run(trace, prewarm=True)
        off = run(trace, prewarm=False)
        # Without prewarm the first pool pass misses.
        assert (off.activity.module("dram").total
                >= on.activity.module("dram").total)

    def test_prewarm_never_slows_down(self):
        for trace in (hot_pool_trace(accesses=1500), single_pass_stream(1500)):
            on = run(trace, prewarm=True)
            off = run(trace, prewarm=False)
            assert on.cycles <= off.cycles + 1
