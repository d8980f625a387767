"""Tests for the cache/TLB models and the memory hierarchy walk."""

import pytest

from repro.cpu.caches import SetAssociativeCache, TLB
from repro.cpu.config import baseline_config
from repro.cpu.wavefront import build_plan, frontend_walk, memory_walk
from tests.tiny_traces import alu, jump, load, pre, run, store


def small_cache(assoc=2):
    return SetAssociativeCache("c", size_bytes=assoc * 4 * 64, assoc=assoc, line_bytes=64)


class TestSetAssociativeCache:
    def test_first_access_misses(self):
        cache = small_cache()
        assert not cache.access(0x1000)

    def test_second_access_hits(self):
        cache = small_cache()
        cache.access(0x1000)
        assert cache.access(0x1000)

    def test_same_line_hits(self):
        cache = small_cache()
        cache.access(0x1000)
        assert cache.access(0x103F)

    def test_next_line_misses(self):
        cache = small_cache()
        cache.access(0x1000)
        assert not cache.access(0x1040)

    def test_lru_eviction(self):
        cache = small_cache(assoc=2)
        sets = cache.num_sets
        conflicting = [0x0, sets * 64, 2 * sets * 64]  # same set, 3 tags
        cache.access(conflicting[0])
        cache.access(conflicting[1])
        cache.access(conflicting[2])  # evicts [0]
        assert not cache.access(conflicting[0])

    def test_lru_update_on_hit(self):
        cache = small_cache(assoc=2)
        sets = cache.num_sets
        a, b, c = 0x0, sets * 64, 2 * sets * 64
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a becomes MRU
        cache.access(c)  # evicts b
        assert cache.access(a)
        assert not cache.access(b)

    def test_probe_does_not_touch_stats(self):
        """A probe leaves the LRU order as it was."""
        cache = small_cache(assoc=2)
        sets = cache.num_sets
        a, b, c = 0x0, sets * 64, 2 * sets * 64
        cache.access(a)
        cache.access(b)  # a is now LRU
        assert cache.probe(a)  # ...and a probe must not make it MRU
        assert not cache.probe(0x9999_0000)
        cache.access(c)  # evicts a
        assert not cache.probe(a)
        assert cache.probe(b)

    def test_install_silent(self):
        cache = small_cache()
        cache.install(0x1000)
        assert cache.access(0x1000)

    def test_install_idempotent(self):
        cache = small_cache(assoc=2)
        cache.access(0x0)
        cache.install(0x0)  # must not duplicate / evict
        sets = cache.num_sets
        cache.access(sets * 64)
        assert cache.access(0x0)

    def test_stats(self):
        """Each access reports its own hit or miss."""
        cache = small_cache()
        hits = [cache.access(addr) for addr in (0x0, 0x0, 0x4000_0000)]
        assert hits == [False, True, False]

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("bad", size_bytes=0, assoc=2, line_bytes=64)
        with pytest.raises(ValueError):
            SetAssociativeCache("bad", size_bytes=100, assoc=3, line_bytes=64)


class TestTLB:
    def test_page_granularity(self):
        tlb = TLB("t", entries=16, assoc=4, page_bytes=4096)
        tlb.access(0x1000)
        assert tlb.access(0x1FFF)
        assert not tlb.access(0x2000)


class TestMemoryHierarchy:
    """:func:`~repro.cpu.wavefront.memory_walk` replays the hierarchy over
    a trace (no L2 prewarm here); the plan turns its misses into cycles."""

    CONFIG = baseline_config().resolved()

    def walk(self, trace):
        columns = pre(trace)
        plan = build_plan(columns, self.CONFIG, 0, prewarm=False)
        fe = frontend_walk(columns, self.CONFIG)
        return plan, memory_walk(columns, self.CONFIG, fe, prewarm=False)

    def loads(self, *addrs):
        return self.walk([load(0x1000 + 4 * i, addr) for i, addr in enumerate(addrs)])

    def test_l1_hit_latency(self):
        plan, mem = self.loads(0x1000_0000, 0x1000_0000)
        assert plan.load_cycles[1] == self.CONFIG.l1_latency
        assert not mem.l1d_miss[1]

    def test_cold_miss_goes_to_dram(self):
        plan, mem = self.loads(0x5000_0000)
        assert mem.l1d_miss[0] and mem.dl2_miss[0]
        assert plan.load_dram[0]
        cfg = self.CONFIG
        assert plan.load_cycles[0] == (cfg.l1_latency + cfg.l2_latency
                                       + cfg.dram_cycles + cfg.tlb_miss_penalty)

    def test_l2_hit_after_l1_eviction(self):
        cfg = self.CONFIG
        # Touch enough conflicting lines to evict from L1 but stay in L2.
        base = 0x10_0000
        stride = cfg.l1d_size // cfg.l1d_assoc
        addrs = [base + i * stride for i in range(cfg.l1d_assoc + 2)]
        plan, mem = self.loads(*addrs, addrs[0])
        assert mem.l1d_miss[-1] and not mem.dl2_miss[-1]
        assert not mem.dtlb_miss[-1]
        assert plan.load_cycles[-1] == cfg.l1_latency + cfg.l2_latency

    def test_next_line_prefetch(self):
        _, mem = self.loads(0x8000, 0x8040)  # next line, prefetched
        assert not mem.l1d_miss[1]

    def test_prefetch_covers_streams(self):
        _, mem = self.loads(*(0x20_0000 + i * 8 for i in range(64)))
        assert mem.l1d_miss[0]
        assert not mem.l1d_miss[1:].any()

    def test_tlb_miss_penalty(self):
        # The last line of a page prefetches the first line of the next
        # page into the L1D, but not its translation.
        plan, mem = self.loads(0x77_0FC0, 0x77_1000, 0x77_1000)
        assert mem.dtlb_miss[0] and mem.dtlb_miss[1] and not mem.dtlb_miss[2]
        assert not mem.l1d_miss[1]
        assert plan.load_cycles[1] == (self.CONFIG.l1_latency
                                       + self.CONFIG.tlb_miss_penalty)

    def test_instruction_fetch_paths(self):
        # The jump's redirect opens a second fetch group on the same line.
        plan, mem = self.walk([jump(0x40_0000, 0x40_0000), alu(0x40_0000)])
        assert mem.l1i_miss[0] and mem.il2_miss[0]
        assert not mem.l1i_miss[1]
        cfg = self.CONFIG
        assert plan.fetch_extra == [
            cfg.l2_latency + cfg.dram_cycles + cfg.tlb_miss_penalty, 0
        ]

    def test_store_is_non_blocking(self):
        plan, mem = self.walk([store(0x1000, 0x99_0000)])
        assert mem.l1d_miss[0] and mem.dl2_miss[0]
        # A store never waits for its miss or holds an MSHR.
        assert not plan.memory_miss[0]
        assert not plan.load_dram[0]

    def test_activity_recorded(self):
        result = run([load(0x1000, 0x4000)], baseline_config(), prewarm=False)
        modules = result.activity.modules()
        assert modules["dtlb"].total == 1
        # The cold fetch and the cold load each go to L2 and on to DRAM.
        assert modules["l2_cache"].total == 2
        assert modules["dram"].total == 2
