"""Batched wavefront pre-computation for the columnar timing loop.

Simulating a core interleaves two kinds of work per instruction:
*timing-dependent* scoreboard updates (when does this instruction fetch,
dispatch, issue, complete?) and *timing-independent* microarchitectural
state evolution (branch predictor tables, cache LRU stacks, width
memoization bits, activity accounting).  The second kind never reads a
cycle number — predictor outcomes, hit/miss walks, PAM/partial-value
encodings, and per-module activity depend only on the instruction stream
and the structural configuration.  This module computes all of it ahead
of the loop, in two shared walks plus vectorized column algebra:

* :func:`frontend_walk` — replays the hybrid direction predictor (one
  fused predict-and-train step per conditional branch), the
  return-address stack, and the BTB (one sequence of lookups) over just
  the control instructions, producing per-instruction
  misprediction/lookup/hit masks and the derived ``new_line``
  fetch-group mask.  Keyed by the front-end structure parameters, so one
  walk serves every configuration that shares them (all six paper
  configurations do).

* :func:`memory_walk` — replays the I/D TLBs and L1I/L1D/L2 LRU state
  over the union of fetch-group starts and memory operations, producing
  miss masks; each structure replays its whole reference sequence in
  one :meth:`~repro.cpu.caches.SetAssociativeCache.walk` call.
  Latencies are *not* baked in: hit/miss behaviour is
  latency-independent, so one walk serves every clock/latency variant.

* :func:`build_plan` — converts the walk outputs into the per-config
  column values the slimmed scalar loop consumes (fetch-stall cycles,
  load access cycles, BTB memoization bubbles), precomputes the
  *static* result pieces (branch/cache stats, herding tallies), and
  keeps the static event masks that activity counts are built from.

Per-module activity has one table of rules,
:meth:`WavefrontPlan.activity`: it bins every static mask over a list of
interval starts and adds the loop's dynamic tallies (register-file read
splits, ALU/L1D width outcomes, scheduler broadcast dies) per interval.
A run's :class:`~repro.core.activity.ActivityCounters`
(:meth:`WavefrontPlan.build_activity`) are the one interval
``[warmup, n)``, in the order in which the trace first touches each
module, reconstructed from first-occurrence positions (instruction
index × within-instruction event rank).  Interval power extraction
(:func:`build_interval_series`) is the same call over an
:class:`IntervalCapture`'s boundaries and tally deltas.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.activity import ActivityCounters, ModuleActivity
from repro.cpu.branch_predictor import BranchStats, HybridPredictor
from repro.cpu.caches import CacheStats, SetAssociativeCache, TLB
from repro.cpu.predecode import PreDecodedTrace

_U16 = np.uint64(16)

# Within-instruction event ranks.  An instruction touches modules in a
# fixed order; a module's creation position is
# ``first_instruction_index * 32 + rank``, which totally orders first
# touches across the trace (load-path and store-path events never occur
# on the same instruction, so sharing ranks 14-16 between them is safe).
_R_ITLB = 0
_R_L1I = 1
_R_L2_FETCH = 2
_R_DRAM_FETCH = 3
_R_DIRPRED = 4
_R_BTB = 6
_R_RENAME = 7
_R_FETCHQ = 8
_R_RF_READ = 9
_R_EXEC_UNIT = 10
_R_DTLB_LOAD = 11
_R_L2_LOAD = 12
_R_DRAM_LOAD = 13
_R_MEM_A = 14
_R_MEM_B = 15
_R_MEM_C = 16
_R_BYPASS = 17
_R_SCHED = 18
_R_RF_WRITE = 19
_R_ROB = 20
_R_DTLB_STORE = 21
_R_L2_STORE = 22
_R_DRAM_STORE = 23
_R_DC_STORE = 24


class FrontendWalk:
    """Per-instruction front-end outcomes, shared across configurations.

    ``loop_new_line`` and ``loop_mispredicted`` are the timing loop's
    list copies of two masks, converted once per walk and only read.
    """

    __slots__ = (
        "key", "new_line", "dir_mispred", "mispredicted",
        "btb_lookup", "btb_hit", "ras_hit",
        "loop_new_line", "loop_mispredicted",
    )

    def __init__(self, key, new_line, dir_mispred, mispredicted,
                 btb_lookup, btb_hit, ras_hit):
        self.key = key
        self.new_line = new_line
        self.dir_mispred = dir_mispred
        self.mispredicted = mispredicted
        self.btb_lookup = btb_lookup
        self.btb_hit = btb_hit
        self.ras_hit = ras_hit
        self.loop_new_line = new_line.tolist()
        self.loop_mispredicted = mispredicted.tolist()


class MemoryWalk:
    """Per-instruction hierarchy miss outcomes (latency-independent).

    ``loop_load_dram`` (a load that misses the L2) and
    ``loop_memory_miss`` (a load that misses the L1D or the DTLB) are the
    timing loop's list columns, converted once per walk and only read.
    """

    __slots__ = (
        "itlb_miss", "l1i_miss", "il2_miss",
        "dtlb_miss", "l1d_miss", "dl2_miss",
        "loop_load_dram", "loop_memory_miss",
    )

    def __init__(self, itlb_miss, l1i_miss, il2_miss,
                 dtlb_miss, l1d_miss, dl2_miss, is_load):
        self.itlb_miss = itlb_miss
        self.l1i_miss = l1i_miss
        self.il2_miss = il2_miss
        self.dtlb_miss = dtlb_miss
        self.l1d_miss = l1d_miss
        self.dl2_miss = dl2_miss
        self.loop_load_dram = (is_load & dl2_miss).tolist()
        self.loop_memory_miss = (is_load & (l1d_miss | dtlb_miss)).tolist()


def frontend_walk(pre: PreDecodedTrace, cfg) -> FrontendWalk:
    """Replay direction predictor + BTB + RAS over control instructions.

    In program order, per control instruction:

    * a conditional branch predicts, then trains the hybrid predictor;
      a wrong direction mispredicts.  A correctly predicted taken branch
      looks up the BTB, and a BTB miss mispredicts.
    * a call pushes ``pc + 4`` on the return-address stack (dropping the
      oldest entry beyond ``ras_depth``); a call or jump looks up the
      BTB, and a miss mispredicts when the transfer is taken.
    * a return pops the stack; it hits when the popped address equals
      its target and mispredicts otherwise, including on an empty stack.

    The BTB is a set-associative cache of 4-byte entries indexed by PC;
    every lookup allocates on a miss.  Emits boolean columns over the
    whole trace; non-control rows stay False.
    """
    key = (cfg.btb_entries, cfg.btb_assoc, cfg.ras_depth)
    walk = pre.frontend_walks.get(key)
    if walk is not None:
        return walk

    cols = pre.np_cols
    n = pre.n
    pcs = pre.pcs
    takens = pre.takens
    targets = pre.targets
    is_cond = cols["is_cond"]
    is_return = cols["is_return"]
    taken = cols["taken"]

    # Direction: predict and train at every conditional branch.
    step = HybridPredictor().step
    dir_mispred = np.zeros(n, dtype=bool)
    branches = np.flatnonzero(is_cond)
    dir_mispred[branches] = [
        step(pcs[i], takens[i]) != takens[i] for i in branches.tolist()
    ]

    # Return-address stack over calls and returns in program order.
    ras: List[int] = []
    ras_depth = cfg.ras_depth
    ras_hit = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(cols["is_call"] | is_return).tolist():
        if is_return[i]:
            if ras and ras.pop() == targets[i]:
                ras_hit[i] = True
        else:
            ras.append(pcs[i] + 4)
            if len(ras) > ras_depth:
                del ras[0]

    # BTB: a correctly predicted taken branch, a call and a jump look it
    # up, in program order; a lookup allocates on a miss.
    calls_jumps = cols["is_control"] & ~is_cond & ~is_return
    lookup = (is_cond & ~dir_mispred & taken) | calls_jumps
    btb = SetAssociativeCache("btb", cfg.btb_entries * 4, cfg.btb_assoc, 4)
    lookups = np.flatnonzero(lookup)
    btb_hit = np.zeros(n, dtype=bool)
    btb_hit[lookups] = np.logical_not(btb.walk((cols["pc"][lookups] // 4).tolist()))

    # A wrong direction, a BTB miss on a taken transfer and a return the
    # stack does not hold all mispredict.
    mispred_arr = (dir_mispred | (lookup & ~btb_hit & taken)
                   | (is_return & ~ras_hit))
    # A taken or mispredicted control instruction redirects fetch: the
    # next instruction starts a new fetch group regardless of its line.
    redirect = cols["is_control"] & (cols["taken"] | mispred_arr)
    fl = cols["fetch_lines"]
    new_line = np.empty(n, dtype=bool)
    new_line[0] = True  # the first instruction always opens a fetch group
    new_line[1:] = (fl[1:] != fl[:-1]) | redirect[:-1]

    walk = FrontendWalk(
        key=key,
        new_line=new_line,
        dir_mispred=dir_mispred,
        mispredicted=mispred_arr,
        btb_lookup=lookup,
        btb_hit=btb_hit,
        ras_hit=ras_hit,
    )
    pre.frontend_walks[key] = walk
    return walk


def memory_walk(pre: PreDecodedTrace, cfg, fe: FrontendWalk,
                prewarm: bool) -> MemoryWalk:
    """Replay TLB/L1I/L1D/L2 LRU evolution, recording per-access misses.

    In program order over the union of fetch-group starts and memory
    operations: after the L2 prewarm preamble
    (:meth:`~repro.cpu.predecode.PreDecodedTrace.prewarm_lines`), a fetch
    group accesses the ITLB and the L1I, an L1I miss accesses the L2, and
    the next line is installed in the L1I and the L2 (the next-line
    prefetcher).  A load or store does the same through the DTLB and the
    L1D.  An L2 miss goes to DRAM.  The TLBs and L1s each see only their
    own stream, so each replays alone; the L2 replays the two streams'
    references merged in program order (a fetch before the same
    instruction's data access).  Latency parameters don't affect
    hit/miss behaviour, so the walk is shared across clock and latency
    variants (keyed by structure + the front-end walk that determined
    the fetch groups).
    """
    key = fe.key + (
        prewarm, cfg.line_bytes, cfg.page_bytes,
        cfg.l1i_size, cfg.l1i_assoc, cfg.l1d_size, cfg.l1d_assoc,
        cfg.l2_size, cfg.l2_assoc,
        cfg.itlb_entries, cfg.dtlb_entries, cfg.tlb_assoc,
    )
    walk = pre.memory_walks.get(key)
    if walk is not None:
        return walk

    cols = pre.np_cols
    n = pre.n
    l1i = SetAssociativeCache("l1i", cfg.l1i_size, cfg.l1i_assoc, cfg.line_bytes)
    l1d = SetAssociativeCache("l1d", cfg.l1d_size, cfg.l1d_assoc, cfg.line_bytes)
    l2 = SetAssociativeCache("l2", cfg.l2_size, cfg.l2_assoc, cfg.line_bytes)
    itlb = TLB("itlb", cfg.itlb_entries, cfg.tlb_assoc, cfg.page_bytes)
    dtlb = TLB("dtlb", cfg.dtlb_entries, cfg.tlb_assoc, cfg.page_bytes)
    pc_lines, pc_pages, mem_lines, mem_pages = pre.geometry(
        cfg.line_bytes, cfg.page_bytes
    )
    fetches = np.flatnonzero(fe.new_line)
    accesses = np.flatnonzero(cols["is_memory"])

    # Each TLB and L1 sees only its own stream, so each replays alone.
    fetch_lines = pc_lines[fetches].tolist()
    access_lines = mem_lines[accesses].tolist()
    itlb_f = itlb.walk(pc_pages[fetches].tolist())
    l1i_f = l1i.walk(fetch_lines, prefetch=True)
    dtlb_m = dtlb.walk(mem_pages[accesses].tolist())
    l1d_m = l1d.walk(access_lines, prefetch=True)

    # The L2 serves both streams in program order (an instruction's fetch
    # before its data access): every L1 miss accesses it and every
    # reference installs the next line.  The prewarm installs come first,
    # each as an install-only reference to the line before it.
    warm = ([line - 1 for line in pre.prewarm_lines(cfg.line_bytes)]
            if prewarm else [])
    order = np.argsort(np.concatenate((2 * fetches, 2 * accesses + 1))).tolist()
    refs = fetch_lines + access_lines
    missed = l1i_f + l1d_m
    l2_misses = np.empty(len(refs), dtype=bool)
    l2_misses[order] = l2.walk(
        warm + [refs[k] for k in order],
        [False] * len(warm) + [missed[k] for k in order],
        prefetch=True,
    )[len(warm):]
    nf = len(fetches)

    def column(at, values):
        out = np.zeros(n, dtype=bool)
        out[at] = values
        return out

    walk = MemoryWalk(
        itlb_miss=column(fetches, itlb_f),
        l1i_miss=column(fetches, l1i_f),
        il2_miss=column(fetches, l2_misses[:nf]),
        dtlb_miss=column(accesses, dtlb_m),
        l1d_miss=column(accesses, l1d_m),
        dl2_miss=column(accesses, l2_misses[nf:]),
        is_load=cols["is_load"],
    )
    pre.memory_walks[key] = walk
    return walk


class WavefrontPlan:
    """Everything the slim scalar loop and result assembly consume."""

    __slots__ = (
        "n", "warmup", "th",
        # loop columns (plain lists, full trace length; the walks'
        # shared lists where they depend on the walks only)
        "new_line", "fetch_extra", "bubbles", "mispredicted",
        "load_cycles", "load_dram", "memory_miss",
        "dc_load_comp",
        # static result pieces
        "branch_stats", "cache_stats", "wp_predictions",
        "pam_broadcasts", "pam_herded_count", "dc_loads",
        "sched_broadcasts", "memo_btb_lookups", "memo_btb_far",
        # static event masks over the measured window, by name
        "_masks",
    )

    def __init__(self, pre: PreDecodedTrace, cfg, warmup: int,
                 fe: FrontendWalk, mem: MemoryWalk):
        cols = pre.np_cols
        n = pre.n
        th = cfg.thermal_herding
        self.n = n
        self.warmup = warmup
        self.th = th

        NL = fe.new_line
        LKP = fe.btb_lookup
        HIT = fe.btb_hit
        RASH = fe.ras_hit
        COND = cols["is_cond"]
        RET = cols["is_return"]
        LD = cols["is_load"]
        ST = cols["is_store"]
        MEM = cols["is_memory"]
        INT = cols["is_intdp"]
        # The execute stage's unit-activity chain: integer-datapath
        # non-memory ops use the partitioned ALU, memory ops the AGU
        # (both the "alu" module), and only non-integer non-memory FP ops
        # touch the FPU.
        INTM = INT | MEM
        FPX = cols["is_fp"] & ~INTM
        DST = cols["has_dst"]
        RL = cols["result_low"]
        HT = cols["has_target"]
        LM, IL2, ITM = mem.l1i_miss, mem.il2_miss, mem.itlb_miss
        DM, DL2, DTM = mem.l1d_miss, mem.dl2_miss, mem.dtlb_miss

        # ---- per-config latency columns for the loop ---- #
        l2_lat = cfg.l2_latency
        dram_c = cfg.dram_cycles
        tlb_pen = cfg.tlb_miss_penalty
        self.new_line = fe.loop_new_line
        self.fetch_extra = (
            LM.astype(np.int64) * l2_lat
            + IL2.astype(np.int64) * dram_c
            + ITM.astype(np.int64) * tlb_pen
        ).tolist()
        self.load_cycles = (
            cfg.l1_latency
            + DM.astype(np.int64) * l2_lat
            + DL2.astype(np.int64) * dram_c
            + DTM.astype(np.int64) * tlb_pen
        ).tolist()
        self.load_dram = mem.loop_load_dram
        self.memory_miss = mem.loop_memory_miss
        self.mispredicted = fe.loop_mispredicted

        # ---- static event masks over the measured window ---- #
        # :meth:`activity` bins them per interval; :meth:`build_activity`
        # orders modules by their first occurrences.
        events = {
            "nl": NL, "cond": COND, "lkp": LKP, "rash": RASH,
            "ld": LD, "st": ST, "dst": DST, "alu": INTM, "fp": FPX,
            "l2_fetch": NL & LM, "l2_load": LD & DM, "l2_store": ST & DM,
            "dram_fetch": NL & IL2, "dram_load": LD & DL2,
            "dram_store": ST & DL2,
        }
        if th:
            NEAR = (cols["target"] >> _U16) == (cols["pc"] >> _U16)
            BUB = LKP & HIT & HT & ~NEAR
            self.bubbles = BUB.astype(np.int64).tolist()
            dc_load_comp, dc_store_comp = pre.dc_columns(
                cfg.dcache_encoding.value)
            self.dc_load_comp = dc_load_comp
            pamh = np.array(pre.pam_herded(), dtype=bool)
            events.update({
                "near": LKP & HIT & HT & NEAR,
                "wlow": DST & RL,
                "dst_low": DST & INT & RL,
                "pam_ld": LD & pamh,
                "pam_st": ST & pamh,
                "store_comp": ST & np.array(dc_store_comp, dtype=bool),
            })
        else:
            self.bubbles = [0] * n
            self.dc_load_comp = None
        self._masks = masks = {name: mask[warmup:]
                               for name, mask in events.items()}

        # ---- windowed sums for the static result pieces ---- #
        s = {name: int(np.count_nonzero(mask)) for name, mask in masks.items()}

        def S(mask) -> int:
            return int(np.count_nonzero(mask[warmup:]))

        s_mem = s["ld"] + s["st"]
        self.branch_stats = BranchStats(
            conditional_branches=s["cond"],
            direction_mispredicts=S(COND & fe.dir_mispred),
            btb_lookups=s["lkp"],
            btb_misses=S(LKP & ~HIT),
            ras_returns=S(RET),
            ras_mispredicts=S(RET & ~RASH),
        )
        self.cache_stats = {
            "l1i": CacheStats(accesses=s["nl"], misses=s["l2_fetch"]),
            "l1d": CacheStats(accesses=s_mem,
                              misses=s["l2_load"] + s["l2_store"]),
            "l2": CacheStats(
                accesses=s["l2_fetch"] + s["l2_load"] + s["l2_store"],
                misses=s["dram_fetch"] + s["dram_load"] + s["dram_store"],
            ),
            "itlb": CacheStats(accesses=s["nl"], misses=S(NL & ITM)),
            "dtlb": CacheStats(accesses=s_mem, misses=S(MEM & DTM)),
        }

        if th:
            self.wp_predictions = S(INT)
            self.pam_broadcasts = s_mem
            self.pam_herded_count = s["pam_ld"] + s["pam_st"]
            self.dc_loads = s["ld"]
            self.sched_broadcasts = s["dst"]
            self.memo_btb_lookups = S(LKP & HIT & HT)
            self.memo_btb_far = S(BUB)
        else:
            self.wp_predictions = 0
            self.pam_broadcasts = 0
            self.pam_herded_count = 0
            self.dc_loads = 0
            self.sched_broadcasts = 0
            self.memo_btb_lookups = 0
            self.memo_btb_far = 0

    # ------------------------------------------------------------------ #

    def activity(self, starts: np.ndarray,
                 tallies: np.ndarray) -> Dict[str, List[ModuleActivity]]:
        """Every module's activity in each interval of the measured window.

        Interval ``j`` runs from instruction ``warmup + starts[j]`` up to
        the next interval's start (the last one to the end of the trace),
        and ``tallies[j]`` holds the loop's dynamic tallies accrued in it,
        in :class:`IntervalCapture` column order.  Each static event mask
        is binned with one ``np.add.reduceat``.  This is the one table of
        activity rules: most modules are touched either on the top die
        alone or on all four dies, while the split direction predictor
        and the entry-stacked scheduler count each die separately.
        """
        b = {name: np.add.reduceat(mask, starts, dtype=np.int64)
             for name, mask in self._masks.items()}
        insts = np.diff(starts, append=self.n - self.warmup)
        zeros = np.zeros_like(insts)
        rf1, rf4, alu1, alu4, l1d1, l1d4 = tallies[:, :6].T
        mem = b["ld"] + b["st"]
        dst = b["dst"]
        # name -> (accesses confined to the top die, accesses on all dies)
        rules = {
            "itlb": (zeros, b["nl"]),
            "l1_icache": (zeros, b["nl"]),
            "l2_cache": (zeros, b["l2_fetch"] + b["l2_load"] + b["l2_store"]),
            "dram": (zeros,
                     b["dram_fetch"] + b["dram_load"] + b["dram_store"]),
            "ibtb": (zeros, b["rash"]),
            "rename": (zeros, insts),
            "fetch_queue": (zeros, insts),
            "fpu": (zeros, b["fp"]),
            "dtlb": (zeros, mem),
        }
        if self.th:
            near, wlow, low = b["near"], b["wlow"], b["dst_low"]
            rules.update({
                # Memoized BTB: a near target is read from the top die.
                "btb": (near, b["lkp"] - near),
                # Register file: dynamic reads + static writes.
                "register_file": (rf1 + wlow, rf4 + dst - wlow),
                # Partitioned ALU ops, then the AGU on every die.
                "alu": (alu1, alu4 + mem),
                # PAM: loads probe the store queue, stores the load queue.
                "store_queue": (b["pam_ld"], b["ld"] - b["pam_ld"]),
                "load_queue": (b["pam_st"], b["st"] - b["pam_st"]),
                # L1D data array: dynamic load records + static
                # fills/stores.
                "l1_dcache": (l1d1 + b["store_comp"],
                              l1d4 + b["l2_load"] + b["st"] - b["store_comp"]),
                "bypass": (low, dst - low),
                "rob": (low, dst - low),
            })
        else:
            rules.update({
                "dir_predictor": (zeros, 2 * b["cond"]),
                "btb": (zeros, b["lkp"]),
                "register_file": (rf1, rf4 + dst),
                "alu": (zeros, b["alu"]),
                "store_queue": (zeros, mem),
                "load_queue": (zeros, mem),
                "l1_dcache": (zeros, mem),
                "bypass": (zeros, dst),
                "scheduler": (zeros, dst),
                "rob": (zeros, dst),
            })
        out = {
            name: [ModuleActivity(total=c1 + c4, top_only=c1,
                                  per_die=[c1 + c4, c4, c4, c4])
                   for c1, c4 in zip(top.tolist(), full.tolist())]
            for name, (top, full) in rules.items()
        }
        if self.th:
            # Split arrays: predictions touch dies 0-1, updates 0-3.
            out["dir_predictor"] = [
                ModuleActivity(total=6 * c, top_only=2 * c,
                               per_die=[2 * c, 2 * c, c, c])
                for c in b["cond"].tolist()
            ]
            # Entry-stacked scheduler: the wakeups each die saw.
            out["scheduler"] = [
                ModuleActivity(total=sum(dies), top_only=dies[0],
                               per_die=dies)
                for dies in tallies[:, 6:].tolist()
            ]
        return out

    def build_activity(
        self,
        rf1: int, rf4: int, first_rf: int,
        alu1: int, alu4: int,
        l1d1: int, l1d4: int,
        sched_die: List[int],
    ) -> ActivityCounters:
        """The run's activity counters: :meth:`activity` over the one
        interval ``[warmup, n)``.  A module is kept when the window
        touches it (its position is known and its total is non-zero),
        in the order the trace first touches each module."""
        tallies = np.array([[rf1, rf4, alu1, alu4, l1d1, l1d4, *sched_die]],
                           dtype=np.int64)
        activity = self.activity(np.zeros(1, dtype=np.intp), tallies)
        w = self.warmup
        first = {}
        for name, mask in self._masks.items():
            index = int(np.argmax(mask))
            first[name] = w + index if mask[index] else None
        ld, st, dst = first["ld"], first["st"], first["dst"]
        touches = {
            "itlb": ((first["nl"], _R_ITLB),),
            "l1_icache": ((first["nl"], _R_L1I),),
            "l2_cache": ((first["l2_fetch"], _R_L2_FETCH),
                         (first["l2_load"], _R_L2_LOAD),
                         (first["l2_store"], _R_L2_STORE)),
            "dram": ((first["dram_fetch"], _R_DRAM_FETCH),
                     (first["dram_load"], _R_DRAM_LOAD),
                     (first["dram_store"], _R_DRAM_STORE)),
            "dir_predictor": ((first["cond"], _R_DIRPRED),),
            "btb": ((first["lkp"], _R_BTB),),
            "ibtb": ((first["rash"], _R_BTB),),
            "rename": ((w, _R_RENAME),),
            "fetch_queue": ((w, _R_FETCHQ),),
            "register_file": ((first_rf if first_rf >= 0 else None,
                               _R_RF_READ), (dst, _R_RF_WRITE)),
            "alu": ((first["alu"], _R_EXEC_UNIT),),
            "fpu": ((first["fp"], _R_EXEC_UNIT),),
            "dtlb": ((ld, _R_DTLB_LOAD), (st, _R_DTLB_STORE)),
            "bypass": ((dst, _R_BYPASS),),
            "scheduler": ((dst, _R_SCHED),),
            "rob": ((dst, _R_ROB),),
        }
        if self.th:
            touches["store_queue"] = ((ld, _R_MEM_A),)
            touches["load_queue"] = ((st, _R_MEM_A),)
            touches["l1_dcache"] = ((ld, _R_MEM_B), (st, _R_DC_STORE))
        else:
            touches["l1_dcache"] = ((ld, _R_MEM_A), (st, _R_DC_STORE))
            touches["load_queue"] = ((ld, _R_MEM_B), (st, _R_MEM_A))
            touches["store_queue"] = ((ld, _R_MEM_C), (st, _R_MEM_B))

        entries: List[Tuple[int, str]] = []
        for name, pairs in touches.items():
            positions = [index * 32 + rank for index, rank in pairs
                         if index is not None]
            if positions and activity[name][0].total:
                entries.append((min(positions), name))
        entries.sort(key=lambda entry: entry[0])
        counters = ActivityCounters()
        modules = counters.modules()
        for _pos_key, name in entries:
            modules[name] = activity[name][0]
        return counters


def build_plan(pre: PreDecodedTrace, cfg, warmup: int,
               prewarm: bool) -> WavefrontPlan:
    """Run (or reuse) both walks and assemble the per-config plan."""
    fe = frontend_walk(pre, cfg)
    mem = memory_walk(pre, cfg, fe, prewarm)
    return WavefrontPlan(pre, cfg, warmup, fe, mem)


# ---------------------------------------------------------------------- #
# Interval power extraction
# ---------------------------------------------------------------------- #


class IntervalCapture:
    """Cumulative dynamic-tally snapshots at N-instruction boundaries.

    Armed via :meth:`TimingSimulator.run_compiled`'s ``capture``
    parameter: the loop records its running width-dependent tallies
    (register-file read splits, ALU/L1D width outcomes, scheduler
    broadcast dies) and the commit cycle at the last instruction of each
    interval.  The un-armed hot path pays one boolean list index per
    instruction; snapshots are O(intervals), not O(instructions).
    Interval deltas fall out as vectorized diffs of the snapshots, so
    they sum *exactly* to the aggregate tallies by construction.
    """

    __slots__ = (
        "interval_insts", "warmup", "ends", "cycle_base", "_rows", "_table",
    )

    def __init__(self, interval_insts: int):
        if interval_insts <= 0:
            raise ValueError(
                f"interval_insts must be positive, got {interval_insts}"
            )
        self.interval_insts = int(interval_insts)
        self.warmup = 0
        self.ends: Optional[np.ndarray] = None
        self.cycle_base = 0
        self._rows: List[Tuple[int, ...]] = []
        self._table: Optional[np.ndarray] = None

    def prepare(self, n: int, warmup: int) -> List[bool]:
        """Boundary marks for a trace of ``n`` instructions.

        Intervals cover the measured window ``[warmup, n)`` in chunks of
        ``interval_insts`` (the last chunk may be short).  Returns a
        plain bool list the loop indexes once per instruction.
        """
        span = n - warmup
        if span <= 0:
            raise ValueError(f"warmup ({warmup}) leaves no instructions")
        step = self.interval_insts
        self.warmup = warmup
        self.ends = np.minimum(np.arange(step, span + step, step), span)
        self._rows = []
        self._table = None
        marks = [False] * n
        for end in self.ends:
            marks[warmup + int(end) - 1] = True
        return marks

    def record(self, rf1: int, rf4: int, alu1: int, alu4: int,
               l1d1: int, l1d4: int, sched_die: List[int],
               commit_cycle: int) -> None:
        """Snapshot the running tallies at one interval boundary."""
        self._rows.append((
            rf1, rf4, alu1, alu4, l1d1, l1d4,
            sched_die[0], sched_die[1], sched_die[2], sched_die[3],
            commit_cycle,
        ))

    def finish(self, cycle_base: int) -> None:
        """Seal the capture once the loop has run."""
        self.cycle_base = cycle_base
        self._table = np.array(self._rows, dtype=np.int64)
        if self._table.shape[0] != len(self.ends):
            raise RuntimeError(
                f"captured {self._table.shape[0]} snapshots for "
                f"{len(self.ends)} intervals"
            )

    _COLS = {
        "rf1": 0, "rf4": 1, "alu1": 2, "alu4": 3, "l1d1": 4, "l1d4": 5,
        "sd0": 6, "sd1": 7, "sd2": 8, "sd3": 9,
    }

    def tally_deltas(self) -> np.ndarray:
        """Per-interval deltas of every cumulative tally, one column each
        in ``_COLS`` order."""
        if self._table is None:
            raise RuntimeError("capture not finished")
        return np.diff(self._table[:, :10], axis=0, prepend=0)

    def deltas(self, name: str) -> np.ndarray:
        """Per-interval deltas of one cumulative tally column."""
        return self.tally_deltas()[:, self._COLS[name]]

    def cycle_deltas(self) -> np.ndarray:
        """Commit cycles attributed to each interval (sums to the run's
        total cycle count)."""
        if self._table is None:
            raise RuntimeError("capture not finished")
        return np.diff(self._table[:, 10], prepend=self.cycle_base)


class IntervalActivitySeries:
    """Per-interval activity buckets for one (trace, config) run.

    ``counters[j]`` holds the j-th interval's :class:`ActivityCounters`
    with the *same module set and creation order* as the aggregate run
    result; summing any module across intervals reproduces the aggregate
    counts exactly, and a one-interval series equals the aggregate.
    """

    __slots__ = ("interval_insts", "insts", "cycles", "counters")

    def __init__(self, interval_insts: int, insts: np.ndarray,
                 cycles: np.ndarray, counters: List[ActivityCounters]):
        self.interval_insts = interval_insts
        self.insts = insts
        self.cycles = cycles
        self.counters = counters

    def __len__(self) -> int:
        return len(self.counters)

    def time_ns(self, clock_ghz: float) -> np.ndarray:
        """Each interval's runtime, clamped to one cycle like a run
        result's."""
        return np.maximum(self.cycles, 1) / clock_ghz


def build_interval_series(
    pre: PreDecodedTrace,
    cfg,
    warmup: int,
    prewarm: bool,
    capture: IntervalCapture,
    aggregate: ActivityCounters,
) -> IntervalActivitySeries:
    """Bucket per-module activity into the capture's intervals.

    The same :meth:`WavefrontPlan.activity` call that builds the
    aggregate counters, over the capture's interval starts and tally
    deltas instead of the one interval ``[warmup, n)``, so buckets sum
    to the aggregate counters bit-for-bit.  ``aggregate`` (the run
    result's counters) fixes the module set and creation order.
    """
    plan = build_plan(pre, cfg, warmup, prewarm)
    ends = capture.ends
    activity = plan.activity(np.concatenate(([0], ends[:-1])),
                             capture.tally_deltas())
    names = list(aggregate.modules())
    counters: List[ActivityCounters] = []
    for j in range(len(ends)):
        bucket = ActivityCounters()
        modules = bucket.modules()
        for name in names:
            modules[name] = activity[name][j]
        counters.append(bucket)
    return IntervalActivitySeries(
        interval_insts=capture.interval_insts,
        insts=np.diff(ends, prepend=0),
        cycles=capture.cycle_deltas(),
        counters=counters,
    )
