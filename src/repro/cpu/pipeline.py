"""Out-of-order scoreboard timing model.

The simulator assigns each committed trace instruction a fetch, dispatch,
issue, completion, and commit cycle, subject to:

* fetch bandwidth, I-cache/ITLB misses, branch redirects, BTB bubbles;
* dispatch bandwidth and ROB/RS/LQ/SQ/IFQ occupancy (an allocation
  waits for the earliest-freed entry; ROB and IFQ waits are read by
  instruction index, as both free in program order);
* register dependences through a ready-cycle scoreboard (bypass has no
  extra latency, matching an aggressive bypass network);
* functional-unit structural hazards (a min-heap of next-free cycles
  per unit pool) and issue bandwidth;
* memory latencies from the cache/TLB hierarchy (precomputed per
  instruction by :mod:`repro.cpu.wavefront`);
* with Thermal Herding enabled, all the width-misprediction penalties of
  Section 3: register-read group stalls, ALU input stalls and output
  re-executions, D-cache read stalls, and BTB memoization bubbles.

Operand sourcing rule: an operand whose producer completes after this
instruction dispatched arrives through the bypass network, so its width
misprediction is caught by the ALU (one-cycle input stall); operands read
from the register file are checked against the memoization bits at
dispatch and charge the *group* at most one stall cycle (Section 3.1).

Every trace is replayed by :meth:`TimingSimulator.run_compiled` over its
pre-decoded columnar form; ``tests/cpu/test_core_digest.py`` pins the
output bytes with golden digests.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.core.activity import NUM_DIES
from repro.core.scheduler_allocation import AllocationPolicy
from repro.core.width_prediction import WidthPredictorStats
from repro.cpu.config import CPUConfig, WidthPredictorKind
from repro.cpu.predecode import PreDecodedTrace, predecode
from repro.cpu.results import SIMULATOR_VERSION  # noqa: F401  (this model's version)
from repro.cpu.results import SimulationResult, StallBreakdown
from repro.cpu.wavefront import build_plan
from repro.isa.compiled import CompiledTrace, OPCLASS_LIST
from repro.isa.opcodes import OpClass

#: Fault-injection hook: when set, called with each instruction index at
#: the top of the simulation loop.  Armed inside worker processes by the
#: fault harness (:mod:`repro.experiments.faults`) to kill or hang a
#: simulation *mid-flight* — after activity state has started to
#: accumulate — so recovery is exercised against partially-written
#: state, not just clean task entry.  ``None`` (the production default)
#: costs one local-variable branch per instruction.
FAULT_HOOK: Optional[Callable[[int], None]] = None


def _free_heap(units: int) -> List[int]:
    """A pool of identical units as a min-heap of their next-free cycles;
    the issue stage takes the root and pushes back its next-free cycle."""
    if units < 1:
        raise ValueError(f"pool needs at least one unit, got {units}")
    return [0] * units


def _build_pools(cfg: CPUConfig):
    """Functional-unit heaps plus the OpClass -> heap issue map.

    LOAD stays a special case (either memory port, whichever frees
    sooner) handled inline by the issue stage.
    """
    pools = {
        "int_alu": _free_heap(cfg.int_alu_units),
        "int_shift": _free_heap(cfg.int_shift_units),
        "int_mul": _free_heap(cfg.int_mul_units),
        "fp_add": _free_heap(cfg.fp_add_units),
        "fp_mul": _free_heap(cfg.fp_mul_units),
        "fp_div": _free_heap(cfg.fp_div_units),
        "ld_st": _free_heap(cfg.load_store_ports),
        "ld_only": _free_heap(cfg.load_only_ports),
    }
    pool_for_op = {
        OpClass.STORE: pools["ld_st"],
        OpClass.ISHIFT: pools["int_shift"],
        OpClass.IMUL: pools["int_mul"],
        OpClass.FADD: pools["fp_add"],
        OpClass.FMUL: pools["fp_mul"],
        OpClass.FDIV: pools["fp_div"],
    }
    for op in OpClass:
        pool_for_op.setdefault(op, pools["int_alu"])
    return pools, pool_for_op


def _fold_wakeups(wakeups: List[int], rs_size: int,
                  top_first: bool) -> List[int]:
    """Per-die scheduler wakeup counts from the loop's histogram.

    ``wakeups[rotation * rs_size + position]`` counts result broadcasts
    whose completion cycle sorts after ``position`` of the RS free-at
    cycles (``1 <= position <= rs_size``: the head entry, the
    broadcasting instruction's own, is always free), so ``rs_size -
    position`` entries are still busy.  Entries are stacked one quarter
    per die, and a die with no busy entry is not woken; an empty
    scheduler wakes one die, the bus stub.  Under ``TOP_FIRST`` the busy
    entries fill the dies from the top, so ``ceil(busy / (rs_size / 4))``
    dies wake, starting at die 0 (the rotation is always 0).  Under
    ``ROUND_ROBIN`` they spread evenly, so ``min(busy, 4)`` dies wake,
    starting at the broadcast's rotation, which advances by one die per
    broadcast.
    """
    dies = [0] * NUM_DIES
    per_die = rs_size // NUM_DIES
    for index, count in enumerate(wakeups):
        if not count:
            continue
        rotation, offset = divmod(index - 1, rs_size)
        busy = rs_size - 1 - offset  # offset == position - 1
        if top_first:
            woken = -(-busy // per_die) if busy else 1
        else:
            woken = min(max(busy, 1), NUM_DIES)
        for offset in range(woken):
            dies[(rotation + offset) % NUM_DIES] += count
    return dies


def _check_config(cfg: CPUConfig) -> None:
    """Reject a configuration whose structures cannot be built.

    The width-predictor table must be a power of two with counters of at
    least one bit (checked only where the dynamic predictor runs), the
    entry-stacked scheduler needs a positive multiple of one entry per
    die, the issue width must be positive (the issue stage would search
    forever for a free slot at zero), and each branch target buffer
    needs whole sets of four-byte entries.
    """
    if cfg.thermal_herding:
        if cfg.width_predictor_kind is WidthPredictorKind.DYNAMIC:
            entries = cfg.width_predictor_entries
            if entries < 1 or entries & (entries - 1):
                raise ValueError(
                    f"width_predictor_entries must be a power of two, got {entries}"
                )
            if cfg.width_counter_bits < 1:
                raise ValueError(
                    f"width_counter_bits must be >= 1, got {cfg.width_counter_bits}"
                )
        if cfg.rs_size < NUM_DIES or cfg.rs_size % NUM_DIES:
            raise ValueError(
                f"rs_size must be a positive multiple of {NUM_DIES}, got {cfg.rs_size}"
            )
    if cfg.issue_width < 1:
        raise ValueError(f"issue_width must be >= 1, got {cfg.issue_width}")
    for name, entries, assoc in (("btb", cfg.btb_entries, cfg.btb_assoc),
                                 ("ibtb", cfg.ibtb_entries, cfg.ibtb_assoc)):
        if entries <= 0 or assoc <= 0:
            raise ValueError(f"{name}: sizes must be positive")
        if entries % assoc:
            raise ValueError(
                f"{name}: {entries} entries not divisible by associativity {assoc}"
            )


class TimingSimulator:
    """Replays one trace under one configuration."""

    def __init__(self, config: CPUConfig):
        self.config = config.resolved()
        _check_config(self.config)

    # ------------------------------------------------------------------ #

    def run_compiled(self, pre: PreDecodedTrace, warmup: int = 0,
                     prewarm: bool = True,
                     capture: Optional["IntervalCapture"] = None
                     ) -> SimulationResult:
        """Simulate the pre-decoded trace ``pre``; the first ``warmup``
        instructions warm the caches and predictors but are excluded from
        all reported metrics.

        Everything per-instruction that does not depend on dynamic cycle
        counts is precomputed by :mod:`repro.cpu.wavefront` into plan
        columns (front-end outcomes, cache-miss latencies, BTB bubbles)
        and static result pieces (branch/cache stats, herding tallies,
        position-ordered activity counts).  The loop below keeps only the
        genuinely serial resources: ROB/RS/LQ/SQ/IFQ entry occupancy,
        functional-unit and MSHR free-at heaps, per-cycle
        fetch/dispatch/issue/commit bandwidth, the dependency scoreboard,
        and the width-state machines whose decisions feed timing
        (predictor counters, register memoization bits, L1D encodings).
        Its bookkeeping is plain indexing: issue bandwidth is a list
        indexed by cycle, memoization bits a list indexed by
        register id, and each result broadcast's scheduler wakeup one
        histogram increment (folded into per-die counts by
        :func:`_fold_wakeups`).  The CPI-stack category is classified
        only when an instruction moves the commit cycle, the only time
        it is charged.  It records no per-event activity; the handful of
        width-dependent activity splits are tallied in locals and merged
        with the binned static masks by
        :meth:`~repro.cpu.wavefront.WavefrontPlan.build_activity`, the
        one-interval case of the activity table, in a fixed module
        creation order.  The golden digests in
        ``tests/cpu/test_core_digest.py`` pin the returned
        :class:`SimulationResult`'s pickle bytes.

        ``capture`` (an :class:`~repro.cpu.wavefront.IntervalCapture`)
        snapshots the running dynamic tallies at interval boundaries;
        :func:`~repro.cpu.wavefront.build_interval_series` feeds their
        deltas through the same activity table.  When None the loop pays
        a single boolean check per instruction, and arming it leaves the
        result unchanged.
        """
        cfg = self.config
        n = pre.n
        if warmup >= n:
            raise ValueError(
                f"warmup ({warmup}) must be smaller than the trace ({n})"
            )
        th = cfg.thermal_herding
        plan = build_plan(pre, cfg, warmup, prewarm)

        # Plan columns: the timing consequences of precomputed outcomes.
        col_new_line = plan.new_line
        col_fetch_extra = plan.fetch_extra
        col_bubbles = plan.bubbles
        col_mispred = plan.mispredicted
        col_load_cycles = plan.load_cycles
        col_load_dram = plan.load_dram
        col_memory_miss = plan.memory_miss
        col_dc_comp = plan.dc_load_comp
        writers0, writers1 = pre.writers()

        # Trace columns.
        pcs = pre.pcs
        codes = pre.codes
        col_is_memory = pre.is_memory
        col_predict_width = pre.is_intdp if th else [False] * n
        col_is_load = pre.is_load
        col_is_store = pre.is_store
        col_srcs = pre.srcs
        col_svals_low = pre.svals_low
        col_dsts = pre.dsts
        col_operands_low = pre.operands_low
        col_result_low = pre.result_low
        col_actual_low = pre.actual_low
        col_latency = pre.latency
        col_busy = pre.busy

        # Hoisted config scalars.
        fetch_width = cfg.fetch_width
        ifq_size = cfg.ifq_size
        front_depth = cfg.front_depth
        decode_width = cfg.decode_width
        rob_size = cfg.rob_size
        rs_size = cfg.rs_size
        issue_width = cfg.issue_width
        commit_width = cfg.commit_width
        redirect_penalty = cfg.redirect_penalty

        # Width-state machines.  Predictor counters, the sticky full-width
        # overrides of the static profile, and the register memoization
        # bits all evolve *with* loop state (stalls consult them,
        # corrections write them back), so they live in the loop as plain
        # lists and dicts.  The dynamic predictor is a PC-indexed table of
        # saturating counters, initialized weakly full width (the
        # threshold) so that early mispredictions are safe; a counter
        # below the threshold predicts low width.
        dynamic_kind = static_kind = oracle_kind = False
        wp_table: List[int] = []
        wp_index: List[int] = []
        wp_threshold = wp_max = 0
        wp_profile_get = None
        wp_merged: Dict[int, bool] = {}
        top_first = True
        if th:
            kind = cfg.width_predictor_kind
            if kind is WidthPredictorKind.ORACLE:
                oracle_kind = True
            elif kind is WidthPredictorKind.STATIC:
                static_kind = True
                # Profile lookups and the sticky full-width overrides
                # merge into one dict: a correction pins its PC to False;
                # an unprofiled PC predicts full width.
                wp_merged = dict(pre.width_profile())
                wp_profile_get = wp_merged.get
            else:
                dynamic_kind = True
                counter_bits = cfg.width_counter_bits
                wp_threshold = 1 << (counter_bits - 1)
                wp_max = (1 << counter_bits) - 1
                wp_table = [wp_threshold] * cfg.width_predictor_entries
                wp_index = pre.pred_index(cfg.width_predictor_entries - 1)
            top_first = cfg.scheduler_policy is AllocationPolicy.TOP_FIRST
        rr_period = NUM_DIES * rs_size

        # Fetch state
        next_fetch_floor = 0
        fetch_cycle = 0
        fetched_in_cycle = 0

        # Dispatch state: dispatch is in order, so the last dispatch
        # cycle is also the floor of the next one.
        last_dispatch_cycle = 0
        dispatched_in_cycle = 0

        # Entry occupancy.  Every structure starts full of entries freed
        # at cycle 0, which never bind, so an allocation always takes the
        # earliest-freed entry without a fullness test.  Each instruction
        # takes one ROB entry and one IFQ slot, freed in program order,
        # so instruction ``index`` reuses the entry of instruction
        # ``index - size`` and waits for its commit (ROB) or dispatch
        # (IFQ) cycle: the columns store instruction ``i``'s cycle at
        # ``i + size``.  LQ/SQ entries also free in order (FIFO popleft
        # == heappop).  RS entries do not: the RS is a sorted list of
        # free-at cycles, so the scheduler's occupancy counts are binary
        # searches (the zero entries never count as busy).  Dispatch reads
        # the earliest-freed entry and the issue stage replaces it with
        # the instruction's own.
        committed = [0] * (n + rob_size)
        dispatched = [0] * (n + ifq_size)
        rs_list = [0] * rs_size
        lq_q = deque([0] * cfg.lq_size)
        sq_q = deque([0] * cfg.sq_size)

        # Issue state: per-pool next-free heaps (see _free_heap), and the
        # number of instructions issued in each cycle, indexed by cycle.
        # The list grows on demand: a probe past its end doubles it at
        # least.
        issued = [0] * (n + 64)
        issued_len = len(issued)
        pools, pool_for_op = _build_pools(cfg)
        heap_by_code = [pool_for_op[op] for op in OPCLASS_LIST]
        ld_st_heap = pools["ld_st"]
        ld_only_heap = pools["ld_only"]
        mshr_heap = _free_heap(cfg.mshr_entries)
        heapreplace = heapq.heapreplace

        # Dependency scoreboard: completion cycle per producing
        # instruction.  The writer columns map each source operand slot to
        # its producer index, replacing the per-register ready dict; a
        # slot without a producer (-1) reads the trailing zero, which is
        # never written.
        completes = [0] * (n + 1)
        # Register width memoization bits (the partitioned register
        # file's lazily installed state), indexed by register id; None
        # until the register is first read or written.
        memo: List[Optional[bool]] = [None] * pre.num_registers

        # Commit state.  ``last_commit_cycle`` is also where the CPI stack
        # attribution last left off: each instruction that moves the
        # commit cycle forward is charged the gap.
        last_commit_cycle = 0
        committed_in_cycle = 0
        cycle_base = 0

        # Dynamic tallies: stall counters, width-dependent activity
        # splits, and predictor outcome counts — everything the static
        # plan cannot know.  All reset at the warmup boundary.
        rf_group_stalls = 0
        alu_input_stalls = 0
        alu_reexecutions = 0
        dcache_width_stalls = 0
        btb_memoization_stalls = 0
        rf1 = rf4 = 0
        first_rf = -1
        alu1 = alu4 = 0
        l1d1 = l1d4 = 0
        dc_herded = 0
        wp_hits = wp_unsafe = wp_safe = 0
        # Scheduler wakeups, tallied per (rotation, RS position) where the
        # broadcast's completion cycle falls among the RS free-at cycles;
        # _fold_wakeups turns the histogram into per-die counts.
        wakeups = [0] * (NUM_DIES * rs_size + 1)
        sched_rr = 0  # rotation state persists across the warmup boundary

        cpi_stack: Dict[str, int] = {}

        fault_hook = FAULT_HOOK
        capture_marks = capture.prepare(n, warmup) if capture is not None else None

        for index in range(n):
            if fault_hook is not None:
                fault_hook(index)
            if index == warmup and warmup:
                rf_group_stalls = 0
                alu_input_stalls = 0
                alu_reexecutions = 0
                dcache_width_stalls = 0
                btb_memoization_stalls = 0
                rf1 = rf4 = 0
                first_rf = -1
                alu1 = alu4 = 0
                l1d1 = l1d4 = 0
                dc_herded = 0
                wp_hits = wp_unsafe = wp_safe = 0
                wakeups = [0] * len(wakeups)
                cycle_base = last_commit_cycle
                cpi_stack = {}
            stalled = False

            # ---------------- FETCH ---------------- #
            new_line = col_new_line[index]
            if new_line or fetched_in_cycle >= fetch_width:
                fetch_cycle += 1
                fetched_in_cycle = 0
            if fetch_cycle < next_fetch_floor:
                fetch_cycle = next_fetch_floor
            floor = dispatched[index]  # IFQ back-pressure
            if fetch_cycle < floor:
                fetch_cycle = floor
            if new_line:
                fetch_cycle += col_fetch_extra[index]
            fetched_in_cycle += 1
            if next_fetch_floor < fetch_cycle:
                next_fetch_floor = fetch_cycle

            # Front-end bubbles (memoized-BTB far targets; herding only).
            bubbles = col_bubbles[index]
            if bubbles:
                floor = fetch_cycle + bubbles
                if next_fetch_floor < floor:
                    next_fetch_floor = floor
                btb_memoization_stalls += bubbles
                stalled = True

            # ---------------- DECODE / WIDTH PREDICT ---------------- #
            predict_width = col_predict_width[index]
            if predict_width:
                actual_low = col_actual_low[index]
                if dynamic_kind:
                    predicted_low = wp_table[wp_index[index]] < wp_threshold
                elif oracle_kind:
                    predicted_low = actual_low
                else:
                    predicted_low = wp_profile_get(pcs[index], False)
            else:
                predicted_low = False

            # ---------------- DISPATCH ---------------- #
            dispatch_cycle = fetch_cycle + front_depth
            if dispatch_cycle <= last_dispatch_cycle:
                dispatch_cycle = last_dispatch_cycle
                if dispatched_in_cycle >= decode_width:
                    dispatch_cycle += 1
            freed = committed[index]  # ROB entry reused
            if freed > dispatch_cycle:
                dispatch_cycle = freed
            freed = rs_list[0]  # replaced once the issue cycle is known
            if freed > dispatch_cycle:
                dispatch_cycle = freed
            is_load = col_is_load[index]
            is_store = col_is_store[index]
            if is_load:
                freed = lq_q.popleft()
                if freed > dispatch_cycle:
                    dispatch_cycle = freed
            elif is_store:
                freed = sq_q.popleft()
                if freed > dispatch_cycle:
                    dispatch_cycle = freed

            # Dependencies through the writer columns.
            ready = completes[writers0[index]]
            other = completes[writers1[index]]
            if other > ready:
                ready = other
            bypass_sourced = ready > dispatch_cycle

            # Register file read: width memoization bits + group stalls.
            srcs = col_srcs[index]
            effective_low = predicted_low
            if predict_width and srcs:
                if is_load or is_store:
                    # Memory ops read full-width address operands; each
                    # read follows its operand's memoization bit, so no
                    # register-read misprediction is possible here.
                    for src, vlow in zip(srcs, col_svals_low[index]):
                        m = memo[src]
                        if m is None:
                            memo[src] = m = vlow
                        if m:
                            rf1 += 1
                        else:
                            rf4 += 1
                    if first_rf < 0:
                        first_rf = index
                elif not bypass_sourced:
                    group_stall = False
                    for src, vlow in zip(srcs, col_svals_low[index]):
                        m = memo[src]
                        if m is None:
                            memo[src] = m = vlow
                        if predicted_low and m:
                            rf1 += 1
                        else:
                            rf4 += 1
                            if predicted_low:
                                group_stall = True
                    if first_rf < 0:
                        first_rf = index
                    if group_stall:
                        # One stall for the whole dispatch group; correct
                        # the in-flight prediction (Section 3.1).
                        rf_group_stalls += 1
                        stalled = True
                        if dynamic_kind:
                            wp_table[wp_index[index]] = wp_max
                        elif static_kind:
                            wp_merged[pcs[index]] = False
                        dispatch_cycle += 1
                        effective_low = False
            elif srcs and not bypass_sourced:
                rf4 += 1
                if first_rf < 0:
                    first_rf = index

            if dispatch_cycle != last_dispatch_cycle:
                dispatched_in_cycle = 0
                last_dispatch_cycle = dispatch_cycle
            dispatched_in_cycle += 1
            dispatched[index + ifq_size] = dispatch_cycle

            # ---------------- ISSUE ---------------- #
            earliest = dispatch_cycle + 1
            if ready > earliest:
                earliest = ready

            reexecute = False
            if predict_width and not col_is_memory[index]:
                # Partitioned ALU width gating, inlined.
                if not effective_low:
                    alu4 += 1
                elif not col_operands_low[index]:
                    alu4 += 1
                    if bypass_sourced:
                        earliest += 1  # one-cycle input stall
                        alu_input_stalls += 1
                        stalled = True
                elif not col_result_low[index]:
                    # Output misprediction: a wasted low-width pass, then
                    # a full-width re-execution.
                    alu1 += 1
                    alu4 += 1
                    reexecute = True
                    alu_reexecutions += 1
                    stalled = True
                else:
                    alu1 += 1

            if is_load:
                # Either memory port, whichever frees sooner.
                heap = (ld_only_heap if ld_st_heap[0] > ld_only_heap[0]
                        else ld_st_heap)
            else:
                heap = heap_by_code[codes[index]]
            issue_cycle = heap[0]
            if issue_cycle < earliest:
                issue_cycle = earliest
            heapreplace(heap, issue_cycle + col_busy[index])
            if issue_cycle >= issued_len:
                issued += [0] * (issue_cycle + 1)
                issued_len = len(issued)
            count = issued[issue_cycle]
            while count >= issue_width:
                issue_cycle += 1
                if issue_cycle == issued_len:
                    issued += [0] * (issue_cycle + 1)
                    issued_len = len(issued)
                count = issued[issue_cycle]
            issued[issue_cycle] = count + 1

            # ---------------- EXECUTE ---------------- #
            latency = col_latency[index]
            if is_load:
                access_cycles = col_load_cycles[index]
                if col_load_dram[index]:
                    # Wait for a free MSHR before the miss can go out.
                    miss_start = mshr_heap[0]
                    if miss_start < issue_cycle + 1:
                        miss_start = issue_cycle + 1
                    heapreplace(mshr_heap, miss_start + access_cycles)
                    latency += miss_start - (issue_cycle + 1)
                latency += access_cycles
                if th:
                    # Partial-value-encoded L1D read, inlined.
                    if effective_low:
                        if col_dc_comp[index]:
                            l1d1 += 1
                            dc_herded += 1
                        else:
                            l1d4 += 1
                            dcache_width_stalls += 1
                            stalled = True
                            latency += 1
                    else:
                        l1d4 += 1

            if reexecute:
                latency += col_latency[index]
            complete_cycle = issue_cycle + latency

            # Result broadcast.  Only producers are ever read back from
            # ``completes``, so every instruction may record its cycle.
            completes[index] = complete_cycle
            if th:
                dst = col_dsts[index]
                if dst is not None:
                    memo[dst] = col_result_low[index]
                    # Entry-stacked scheduler wakeup gating: the broadcast
                    # wakes the dies holding still-busy entries (RS
                    # free-at cycles past completion; this instruction's
                    # own entry, the list head, is free by now).
                    wakeups[sched_rr + bisect_right(rs_list, complete_cycle)] += 1
                    if not top_first:
                        sched_rr = (sched_rr + rs_size) % rr_period

            # Width predictor training (after any in-flight correction).
            if predict_width:
                if predicted_low == actual_low:
                    wp_hits += 1
                elif predicted_low:
                    wp_unsafe += 1
                else:
                    wp_safe += 1
                if dynamic_kind:
                    ti = wp_index[index]
                    counter = wp_table[ti]
                    if actual_low:
                        if counter > 0:
                            wp_table[ti] = counter - 1
                    elif counter < wp_max:
                        wp_table[ti] = counter + 1

            # Branch resolution.
            mispredicted = col_mispred[index]
            if mispredicted:
                floor = complete_cycle + redirect_penalty
                if next_fetch_floor < floor:
                    next_fetch_floor = floor

            # ---------------- COMMIT ---------------- #
            commit_cycle = complete_cycle + 1
            if commit_cycle <= last_commit_cycle:
                if committed_in_cycle < commit_width:
                    commit_cycle = last_commit_cycle
                    committed_in_cycle += 1
                else:
                    commit_cycle = last_commit_cycle + 1
                    committed_in_cycle = 1
            else:
                committed_in_cycle = 1
            if commit_cycle != last_commit_cycle:
                # CPI-stack attribution of the cycles this commit adds.
                if stalled:
                    category = "width"
                elif mispredicted:
                    category = "branch"
                elif col_memory_miss[index]:
                    category = "memory"
                elif col_fetch_extra[index]:
                    category = "frontend"
                elif ready > dispatch_cycle + 1:
                    category = "dependency"
                elif issue_cycle > earliest:
                    category = "structural"
                else:
                    category = "base"
                try:
                    cpi_stack[category] += commit_cycle - last_commit_cycle
                except KeyError:
                    cpi_stack[category] = commit_cycle - last_commit_cycle
                last_commit_cycle = commit_cycle

            committed[index + rob_size] = commit_cycle
            del rs_list[0]
            insort(rs_list, issue_cycle + 1)
            if is_load:
                lq_q.append(commit_cycle)
            elif is_store:
                sq_q.append(commit_cycle)

            if capture_marks is not None and capture_marks[index]:
                capture.record(rf1, rf4, alu1, alu4, l1d1, l1d4,
                               _fold_wakeups(wakeups, rs_size, top_first),
                               last_commit_cycle)

        if capture is not None:
            capture.finish(cycle_base)

        # ---------------- RESULT ASSEMBLY ---------------- #
        sched_die = _fold_wakeups(wakeups, rs_size, top_first)
        activity = plan.build_activity(
            rf1, rf4, first_rf, alu1, alu4, l1d1, l1d4, sched_die
        )
        width_stats = None
        herding: Dict[str, float] = {}
        if th:
            predictions = plan.wp_predictions
            if oracle_kind:
                width_stats = WidthPredictorStats(
                    predictions=predictions, correct=predictions
                )
            else:
                width_stats = WidthPredictorStats(
                    predictions=predictions,
                    correct=wp_hits,
                    unsafe_mispredictions=wp_unsafe,
                    safe_mispredictions=wp_safe,
                )
            # Fractions of address broadcasts, L1D loads and memoized-BTB
            # hits confined to the top die, and mean dies per scheduler
            # tag broadcast.
            broadcasts = plan.pam_broadcasts
            herding["pam_herded"] = (
                plan.pam_herded_count / broadcasts if broadcasts else 0.0
            )
            loads = plan.dc_loads
            herding["dcache_herded_loads"] = dc_herded / loads if loads else 0.0
            broadcasts = plan.sched_broadcasts
            herding["scheduler_dies_per_broadcast"] = (
                (sched_die[0] + sched_die[1] + sched_die[2] + sched_die[3])
                / broadcasts if broadcasts else 0.0
            )
            lookups = plan.memo_btb_lookups
            herding["btb_herded"] = (
                1.0 - plan.memo_btb_far / lookups if lookups else 0.0
            )
        for name, module in activity.modules().items():
            if module.total:
                herding[f"herded::{name}"] = module.herded_fraction

        total_cycles = (last_commit_cycle - cycle_base) if n else 0
        return SimulationResult(
            benchmark=pre.name,
            benchmark_class=pre.benchmark_class,
            config_name=cfg.name,
            clock_ghz=cfg.clock_ghz,
            instructions=n - warmup,
            cycles=max(total_cycles, 1),
            activity=activity,
            branch_stats=plan.branch_stats,
            cache_stats=plan.cache_stats,
            width_stats=width_stats,
            stalls=StallBreakdown(
                rf_group_stalls=rf_group_stalls,
                alu_input_stalls=alu_input_stalls,
                alu_reexecutions=alu_reexecutions,
                dcache_width_stalls=dcache_width_stalls,
                btb_memoization_stalls=btb_memoization_stalls,
            ),
            herding=herding,
            cpi_stack=cpi_stack,
        )


def simulate(trace: CompiledTrace, config: CPUConfig,
             warmup: int = 0) -> SimulationResult:
    """Convenience wrapper: run ``trace`` under ``config``.

    ``warmup`` instructions at the head of the trace warm caches and
    predictors without contributing to the reported metrics (the trace
    analogue of SimPoint's warmed simulation points).
    """
    return TimingSimulator(config).run_compiled(predecode(trace), warmup=warmup)
