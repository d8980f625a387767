"""Out-of-order scoreboard timing model.

The simulator assigns each committed trace instruction a fetch, dispatch,
issue, completion, and commit cycle, subject to:

* fetch bandwidth, I-cache/ITLB misses, branch redirects, BTB bubbles;
* dispatch bandwidth and ROB/RS/LQ/SQ/IFQ occupancy (an allocation
  waits for the earliest-freed entry; the columnar loop reads ROB and
  IFQ waits by instruction index, as both free in program order);
* register dependences through a ready-cycle scoreboard (bypass has no
  extra latency, matching an aggressive bypass network);
* functional-unit structural hazards (a min-heap of next-free cycles
  per unit pool) and issue bandwidth;
* memory latencies from the cache/TLB hierarchy;
* with Thermal Herding enabled, all the width-misprediction penalties of
  Section 3: register-read group stalls, ALU input stalls and output
  re-executions, D-cache read stalls, and BTB memoization bubbles.

Operand sourcing rule: an operand whose producer completes after this
instruction dispatched arrives through the bypass network, so its width
misprediction is caught by the ALU (one-cycle input stall); operands read
from the register file are checked against the memoization bits at
dispatch and charge the *group* at most one stall cycle (Section 3.1).
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right, insort
from collections import deque
from functools import cached_property
from typing import Callable, Dict, List, Optional, Union

from repro.core.activity import ActivityCounters, BatchedActivityCounters, NUM_DIES
from repro.core.alu import PartitionedALU
from repro.core.bypass import BypassNetwork
from repro.core.dcache_encoding import PartialValueCache
from repro.core.lsq_pam import PartialAddressMemoization
from repro.core.register_file import PartitionedRegisterFile
from repro.core.scheduler_allocation import EntryStackedScheduler
from repro.core.width_prediction import WidthPredictor, WidthPredictorStats
from repro.cpu.branch_predictor import FrontEndPredictor
from repro.cpu.caches import MemoryHierarchy, build_hierarchy
from repro.cpu.config import CPUConfig
from repro.cpu.predecode import PreDecodedTrace, predecode
from repro.cpu.results import SimulationResult, StallBreakdown
from repro.cpu.wavefront import build_plan
from repro.isa.compiled import CompiledTrace, OPCLASS_LIST
from repro.isa.instruction import TraceInstruction
from repro.isa.opcodes import OpClass, OP_LATENCY
from repro.isa.trace import Trace
from repro.isa.values import is_low_width

#: Timing-model version, part of the on-disk result-cache key.  Bump on
#: any change that alters simulation outcomes so stale entries never hit.
#: The columnar path (run_compiled) is byte-identical to the reference
#: loop by construction and test, so it shares this version.
SIMULATOR_VERSION = 1

#: Set to ``0``/``off`` to force the reference object-path loop instead
#: of the columnar pre-decoded loop (used by CI to prove byte-identity).
ENV_COLUMNAR = "REPRO_COLUMNAR"


def columnar_enabled() -> bool:
    """Whether :func:`simulate` uses the columnar fast path (default on)."""
    return os.environ.get(ENV_COLUMNAR, "1").strip().lower() not in (
        "0", "off", "no", "false"
    )

#: Fault-injection hook: when set, called with each instruction index at
#: the top of the simulation loop.  Armed inside worker processes by the
#: fault harness (:mod:`repro.experiments.faults`) to kill or hang a
#: simulation *mid-flight* — after activity state has started to
#: accumulate — so recovery is exercised against partially-written
#: state, not just clean task entry.  ``None`` (the production default)
#: costs one local-variable branch per instruction.
FAULT_HOOK: Optional[Callable[[int], None]] = None


class _Pool:
    """A pool of identical functional units, tracked by next-free cycle."""

    def __init__(self, units: int):
        if units < 1:
            raise ValueError(f"pool needs at least one unit, got {units}")
        #: Min-heap of the units' next-free cycles.  The columnar loop
        #: acquires on it inline instead of through :meth:`acquire`.
        self.free = [0] * units

    def acquire(self, earliest: int, busy: int = 1) -> int:
        """Reserve the unit that frees soonest; returns the start cycle."""
        start = max(earliest, self.free[0])
        heapq.heapreplace(self.free, start + busy)
        return start

    def earliest_free(self) -> int:
        return self.free[0]


def _build_pools(cfg: CPUConfig):
    """Functional-unit pools plus the OpClass -> pool issue map.

    Shared by :meth:`TimingSimulator.run` and
    :meth:`TimingSimulator.run_compiled`.  LOAD stays a special case
    (either memory port, whichever frees sooner) handled inline by the
    issue stage.
    """
    pools = {
        "int_alu": _Pool(cfg.int_alu_units),
        "int_shift": _Pool(cfg.int_shift_units),
        "int_mul": _Pool(cfg.int_mul_units),
        "fp_add": _Pool(cfg.fp_add_units),
        "fp_mul": _Pool(cfg.fp_mul_units),
        "fp_div": _Pool(cfg.fp_div_units),
        "ld_st": _Pool(cfg.load_store_ports),
        "ld_only": _Pool(cfg.load_only_ports),
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


class TimingSimulator:
    """Replays one trace under one configuration."""

    def __init__(self, config: CPUConfig, batched: bool = False):
        self.config = config.resolved()
        # The columnar loop (run_compiled) uses batched activity counters
        # and repackages them as plain counters in the result; the
        # reference loop records eagerly.
        self.counters = BatchedActivityCounters() if batched else ActivityCounters()
        self.frontend = FrontEndPredictor(
            self.counters,
            btb_entries=self.config.btb_entries,
            btb_assoc=self.config.btb_assoc,
            ibtb_entries=self.config.ibtb_entries,
            ibtb_assoc=self.config.ibtb_assoc,
            ras_depth=self.config.ras_depth,
            thermal_herding=self.config.thermal_herding,
        )
        th = self.config.thermal_herding
        self.width_predictor = self._make_width_predictor() if th else None
        self.register_file = PartitionedRegisterFile(self.counters) if th else None
        self.alu = PartitionedALU(self.counters) if th else None
        self.bypass = BypassNetwork(self.counters) if th else None
        self.scheduler = (
            EntryStackedScheduler(self.counters, entries=self.config.rs_size,
                                  policy=self.config.scheduler_policy)
            if th else None
        )
        self.pam = PartialAddressMemoization(self.counters) if th else None
        self.dcache_model = (
            PartialValueCache(self.counters, scheme=self.config.dcache_encoding)
            if th else None
        )
        self.stalls = StallBreakdown()

    @cached_property
    def hierarchy(self) -> MemoryHierarchy:
        """The reference loop's cache/TLB hierarchy, built on first use.

        The columnar loop never touches it (its miss outcomes come
        precomputed from :func:`~repro.cpu.wavefront.memory_walk`), so a
        batched simulator skips allocating every cache's set lists.
        """
        return build_hierarchy(self.counters, self.config)

    def _make_width_predictor(self):
        """Instantiate the configured width predictor variant."""
        from repro.core.static_width import OracleWidthPredictor, StaticWidthPredictor
        from repro.cpu.config import WidthPredictorKind

        kind = self.config.width_predictor_kind
        if kind is WidthPredictorKind.ORACLE:
            return OracleWidthPredictor()
        if kind is WidthPredictorKind.STATIC:
            # The profile is filled in at the start of run() (it needs the
            # trace); start with an empty, all-full-width profile.
            return StaticWidthPredictor({})
        return WidthPredictor(
            self.config.width_predictor_entries, self.config.width_counter_bits
        )

    # ------------------------------------------------------------------ #

    def _reset_measurement(self) -> None:
        """Reset all measured statistics at the warmup boundary.

        Microarchitectural *state* (caches, predictor tables, memoization
        bits) is deliberately preserved — that is the point of warmup.
        """
        from repro.core.width_prediction import WidthPredictorStats
        from repro.cpu.branch_predictor import BranchStats
        from repro.cpu.caches import CacheStats

        self.counters.clear()
        self.stalls = StallBreakdown()
        self.frontend.stats = BranchStats()
        for cache in (self.hierarchy.l1i, self.hierarchy.l1d, self.hierarchy.l2,
                      self.hierarchy.itlb, self.hierarchy.dtlb):
            cache.stats = CacheStats()
        if self.width_predictor is not None:
            self.width_predictor.stats = WidthPredictorStats()
        if self.pam is not None:
            self.pam.broadcasts = 0
            self.pam.herded = 0
        if self.dcache_model is not None:
            self.dcache_model.loads = 0
            self.dcache_model.herded_loads = 0
            self.dcache_model.unsafe_stalls = 0
        if self.scheduler is not None:
            self.scheduler.broadcasts = 0
            self.scheduler.broadcast_die_sum = 0
        if self.frontend.memoized_btb is not None:
            self.frontend.memoized_btb.lookups = 0
            self.frontend.memoized_btb.far_target_stalls = 0
        if self.frontend.split_arrays is not None:
            self.frontend.split_arrays.predictions = 0
            self.frontend.split_arrays.updates = 0
        if self.alu is not None:
            self.alu.input_stalls = 0
            self.alu.reexecutions = 0

    def _prewarm(self, trace: Trace) -> None:
        """Install reused lines into the L2 before timing starts.

        A finite trace window cannot warm a 4 MB L2 the way minutes of
        real execution do, so steady-state residency is approximated from
        reuse: any line the trace touches at least twice would have been
        resident in a long-running simulation (the workloads are
        stationary), while single-touch lines (streaming or pointer-chase
        traffic over large footprints) would miss in steady state too.
        """
        line = self.hierarchy.l2.line_bytes
        region_shift = 16  # 64 KB regions
        access_counts: Dict[int, int] = {}
        region_accesses: Dict[int, int] = {}
        for inst in trace:
            for addr in (inst.pc, inst.mem_addr):
                if addr is None:
                    continue
                tag = addr // line
                access_counts[tag] = access_counts.get(tag, 0) + 1
                region = addr >> region_shift
                region_accesses[region] = region_accesses.get(region, 0) + 1
        # Region-level statistics distinguish three stationary behaviours:
        # * hot regions (access/line ratio >= 2, e.g. stacks and hot sets)
        #   are fully resident;
        # * revisited pools (a meaningful fraction of a region's lines are
        #   reused even if most are touched once in this short window,
        #   e.g. a bounded pointer-chase structure) are resident too;
        # * single-pass streams and vast sparse footprints (no reuse at
        #   all) keep missing, exactly as they would in steady state.
        region_lines: Dict[int, int] = {}
        region_reused: Dict[int, int] = {}
        for tag, count in access_counts.items():
            region = (tag * line) >> region_shift
            region_lines[region] = region_lines.get(region, 0) + 1
            if count >= 2:
                region_reused[region] = region_reused.get(region, 0) + 1
        for tag, count in access_counts.items():
            region = (tag * line) >> region_shift
            lines_here = region_lines[region]
            ratio = region_accesses[region] / lines_here
            reuse_fraction = region_reused.get(region, 0) / lines_here
            if count >= 2 or ratio >= 2.0 or reuse_fraction >= 0.025:
                self.hierarchy.l2.install(tag * line)

    def run(self, trace: Trace, warmup: int = 0, prewarm: bool = True) -> SimulationResult:
        """Simulate ``trace``; the first ``warmup`` instructions warm the
        caches and predictors but are excluded from all reported metrics."""
        cfg = self.config
        counters = self.counters
        if warmup >= len(trace):
            raise ValueError(
                f"warmup ({warmup}) must be smaller than the trace ({len(trace)})"
            )
        if prewarm:
            self._prewarm(trace)
        if cfg.thermal_herding:
            from repro.core.static_width import StaticWidthPredictor, build_width_profile
            if isinstance(self.width_predictor, StaticWidthPredictor):
                # Profile-based static hints: profile the whole trace first.
                self.width_predictor = StaticWidthPredictor(build_width_profile(trace))

        # Fetch state
        next_fetch_floor = 0
        fetch_cycle = 0
        fetched_in_cycle = 0
        current_line = -1
        redirect_pending = False

        # Dispatch state
        dispatch_floor = 0
        last_dispatch_cycle = -1
        dispatched_in_cycle = 0

        # Resource free-at heaps
        rob_heap: List[int] = []
        rs_heap: List[int] = []
        lq_heap: List[int] = []
        sq_heap: List[int] = []
        ifq_ring: List[int] = []  # dispatch cycles of the last ifq_size insts

        # Issue state.  issued_in_cycle is pruned as the dispatch floor
        # advances (see the issue stage) so it never holds one entry per
        # simulated cycle for the whole trace.
        issued_in_cycle: Dict[int, int] = {}
        issue_prune_at = 4096
        pools, pool_for_op = _build_pools(cfg)
        ld_st_pool, ld_only_pool = pools["ld_st"], pools["ld_only"]
        # Miss-status holding registers bound memory-level parallelism:
        # at most mshr_entries DRAM misses may be in flight at once.
        mshr = _Pool(cfg.mshr_entries)

        # Register scoreboard: cycle each architectural register is ready.
        reg_ready: Dict[int, int] = {}

        # Commit state
        last_commit_cycle = 0
        committed_in_cycle = 0

        th = cfg.thermal_herding
        cycle_base = 0

        # Approximate CPI stack: commit-to-commit gaps attributed to each
        # instruction's dominant timing constraint.
        cpi_stack: Dict[str, int] = {}
        prev_commit_for_stack = 0

        fault_hook = FAULT_HOOK

        for index, inst in enumerate(trace):
            if fault_hook is not None:
                fault_hook(index)
            if index == warmup and warmup:
                self._reset_measurement()
                cycle_base = last_commit_cycle
                cpi_stack = {}
                prev_commit_for_stack = last_commit_cycle
            op = inst.op
            stalls_before = self.stalls.total

            # ---------------- FETCH ---------------- #
            line = inst.pc >> 6
            new_line = line != current_line or redirect_pending
            if fetched_in_cycle >= cfg.fetch_width or new_line:
                fetch_cycle += 1
                fetched_in_cycle = 0
            fetch_cycle = max(fetch_cycle, next_fetch_floor)
            # IFQ back-pressure: fetch may only run ifq_size ahead of dispatch.
            if len(ifq_ring) >= cfg.ifq_size:
                fetch_cycle = max(fetch_cycle, ifq_ring[-cfg.ifq_size])
            frontend_miss = False
            if new_line:
                access = self.hierarchy.instruction_fetch(inst.pc)
                if access.cycles > self.hierarchy.l1_latency:
                    # Miss: bubble until the line arrives.
                    fetch_cycle += access.cycles - self.hierarchy.l1_latency
                    frontend_miss = True
                current_line = line
                redirect_pending = False
            fetched_in_cycle += 1
            next_fetch_floor = max(next_fetch_floor, fetch_cycle)

            # Front-end control flow.
            frontend_bubbles = 0
            mispredicted = False
            if op.is_control:
                outcome = self.frontend.process(op, inst.pc, inst.taken, inst.target)
                mispredicted = outcome.mispredicted or (inst.taken and not outcome.target_known)
                frontend_bubbles = outcome.extra_bubbles
                if inst.taken and not mispredicted and op is not OpClass.RETURN \
                        and not outcome.target_known:
                    frontend_bubbles += cfg.btb_miss_bubble
                if inst.taken:
                    redirect_pending = True
                if frontend_bubbles:
                    next_fetch_floor = max(next_fetch_floor, fetch_cycle + frontend_bubbles)
                    if self.frontend.memoized_btb is not None:
                        self.stalls.btb_memoization_stalls += outcome.extra_bubbles

            # ---------------- DECODE / WIDTH PREDICT ---------------- #
            counters.record("rename", dies_active=NUM_DIES)
            counters.record("fetch_queue", dies_active=NUM_DIES)
            predicted_low = False
            actual_low = False
            operands_low = inst.operands_are_low_width
            result_low = is_low_width(inst.result) if inst.writes_register else True
            if th and op.is_integer_datapath:
                # A load/store's prediction concerns its *data* value (the
                # address path is covered by PAM, Section 3.5/3.6); an ALU
                # op's prediction covers its operands and result.
                if op is OpClass.LOAD:
                    actual_low = is_low_width(
                        inst.mem_value if inst.mem_value is not None else inst.result
                    )
                elif op is OpClass.STORE:
                    actual_low = is_low_width(
                        inst.mem_value if inst.mem_value is not None else 0
                    )
                else:
                    actual_low = inst.is_low_width
                prime = getattr(self.width_predictor, "prime", None)
                if prime is not None:  # oracle variant
                    prime(actual_low)
                predicted_low = self.width_predictor.predict_low_width(inst.pc)

            # ---------------- DISPATCH ---------------- #
            dispatch_cycle = max(fetch_cycle + cfg.front_depth, dispatch_floor)
            if dispatch_cycle == last_dispatch_cycle and dispatched_in_cycle >= cfg.decode_width:
                dispatch_cycle += 1
            if rob_heap and len(rob_heap) >= cfg.rob_size:
                dispatch_cycle = max(dispatch_cycle, heapq.heappop(rob_heap))
            if rs_heap and len(rs_heap) >= cfg.rs_size:
                dispatch_cycle = max(dispatch_cycle, heapq.heappop(rs_heap))
            if op is OpClass.LOAD and len(lq_heap) >= cfg.lq_size:
                dispatch_cycle = max(dispatch_cycle, heapq.heappop(lq_heap))
            if op is OpClass.STORE and len(sq_heap) >= cfg.sq_size:
                dispatch_cycle = max(dispatch_cycle, heapq.heappop(sq_heap))

            # Register file read; decide which operands come via bypass.
            ready = 0
            bypass_sourced = False
            for src in inst.srcs:
                src_ready = reg_ready.get(src, 0)
                if src_ready > ready:
                    ready = src_ready
                if src_ready > dispatch_cycle:
                    bypass_sourced = True

            if th and op.is_integer_datapath and inst.srcs:
                if op.is_memory:
                    # Memory ops read full-width address operands; the data
                    # operand of a store follows its memoization bit.  The
                    # width prediction covers the *data* path only, so no
                    # register-read misprediction is possible here.
                    reads = [
                        (src, value, self.register_file.value_is_low(src, value))
                        for src, value in zip(inst.srcs, inst.src_values)
                    ]
                    self.register_file.read_group(reads)
                    effective_low = predicted_low
                elif not bypass_sourced:
                    reads = [
                        (src, value, predicted_low)
                        for src, value in zip(inst.srcs, inst.src_values)
                    ]
                    access = self.register_file.read_group(reads)
                    if access.stall:
                        # One stall for the whole dispatch group.
                        self.stalls.rf_group_stalls += 1
                        self.width_predictor.correct_prediction(inst.pc)
                        dispatch_cycle += 1
                        effective_low = False
                    else:
                        effective_low = predicted_low
                else:
                    effective_low = predicted_low
            else:
                if inst.srcs and not bypass_sourced:
                    counters.record("register_file", dies_active=NUM_DIES)
                effective_low = predicted_low

            if dispatch_cycle != last_dispatch_cycle:
                dispatched_in_cycle = 0
                last_dispatch_cycle = dispatch_cycle
            dispatched_in_cycle += 1
            dispatch_floor = dispatch_cycle
            ifq_ring.append(dispatch_cycle)
            if len(ifq_ring) > cfg.ifq_size * 2:
                del ifq_ring[: cfg.ifq_size]

            # Scheduler entry allocation: chronological occupancy is the
            # number of already-dispatched instructions still waiting to
            # issue at this instruction's dispatch cycle.
            if th:
                occupancy = 1 + sum(1 for c in rs_heap if c > dispatch_cycle)
                self.scheduler.die_for_occupancy(occupancy)

            # ---------------- ISSUE ---------------- #
            earliest = max(dispatch_cycle + 1, ready)

            alu_stall = 0
            reexecute = False
            if th and op.is_integer_datapath and not op.is_memory:
                execution = self.alu.execute(
                    predicted_low=effective_low,
                    operands_low=operands_low,
                    result_low=result_low,
                )
                alu_stall = execution.input_stall_cycles if bypass_sourced else 0
                reexecute = execution.reexecute
                if alu_stall:
                    self.stalls.alu_input_stalls += alu_stall
                if reexecute:
                    self.stalls.alu_reexecutions += 1
            elif op.is_memory:
                # Address generation is a dedicated full-width AGU.
                counters.record("alu", dies_active=NUM_DIES)
            elif op.is_integer_datapath:
                counters.record("alu", dies_active=NUM_DIES)
            elif op.is_fp:
                counters.record("fpu", dies_active=NUM_DIES)

            earliest += alu_stall
            if op is OpClass.LOAD:
                # A load may use either memory port; pick the one free sooner.
                pool = (ld_only_pool
                        if ld_st_pool.earliest_free() > ld_only_pool.earliest_free()
                        else ld_st_pool)
            else:
                pool = pool_for_op[op]
            busy = OP_LATENCY[op] if op is OpClass.FDIV else 1
            issue_cycle = pool.acquire(earliest, busy=busy)
            while issued_in_cycle.get(issue_cycle, 0) >= cfg.issue_width:
                issue_cycle += 1
            issued_in_cycle[issue_cycle] = issued_in_cycle.get(issue_cycle, 0) + 1
            if len(issued_in_cycle) >= issue_prune_at:
                # Every future issue probes a cycle >= dispatch_floor + 1
                # (issue_cycle >= earliest >= dispatch_cycle + 1, and the
                # dispatch floor never decreases), so entries at or below
                # the floor are dead: drop them.  The threshold adapts so
                # a large in-flight window cannot trigger a rebuild per
                # instruction.
                issued_in_cycle = {
                    cycle: count
                    for cycle, count in issued_in_cycle.items()
                    if cycle > dispatch_floor
                }
                issue_prune_at = max(4096, 2 * len(issued_in_cycle))


            # ---------------- EXECUTE / COMPLETE ---------------- #
            latency = OP_LATENCY[op]
            memory_miss = False
            if op is OpClass.LOAD:
                assert inst.mem_addr is not None
                access = self.hierarchy.load(inst.mem_addr)
                memory_miss = access.level != "l1" or access.tlb_miss
                if access.level == "dram":
                    # Wait for a free MSHR before the miss can go out.
                    miss_start = mshr.acquire(issue_cycle + 1, busy=access.cycles)
                    latency += miss_start - (issue_cycle + 1)
                latency += access.cycles
                if th:
                    self.pam.load_broadcast(inst.mem_addr)
                    outcome = self.dcache_model.record_load(
                        inst.mem_addr,
                        inst.mem_value if inst.mem_value is not None else 0,
                        predicted_low=effective_low,
                    )
                    if outcome.stall_cycles:
                        self.stalls.dcache_width_stalls += outcome.stall_cycles
                        latency += outcome.stall_cycles
                    if access.level != "l1":
                        self.dcache_model.record_fill()
                else:
                    counters.record("l1_dcache", dies_active=NUM_DIES)
                    counters.record("load_queue", dies_active=NUM_DIES)
                    counters.record("store_queue", dies_active=NUM_DIES)
            elif op is OpClass.STORE and th:
                self.pam.store_broadcast(inst.mem_addr)
            elif op is OpClass.STORE:
                counters.record("load_queue", dies_active=NUM_DIES)
                counters.record("store_queue", dies_active=NUM_DIES)

            if reexecute:
                latency += OP_LATENCY[op]
            complete_cycle = issue_cycle + latency

            # Result broadcast: bypass + scheduler wakeup + RF/ROB write.
            if inst.writes_register:
                reg_ready[inst.dst] = complete_cycle
                if th:
                    self.bypass.broadcast(result_low if op.is_integer_datapath else False)
                    wakeup_occupancy = sum(1 for c in rs_heap if c > complete_cycle)
                    self.scheduler.broadcast_with_occupancy(wakeup_occupancy)
                    self.register_file.write(inst.dst, inst.result)
                    self.counters.record(
                        "rob", dies_active=1 if (op.is_integer_datapath and result_low) else NUM_DIES
                    )
                else:
                    counters.record("bypass", dies_active=NUM_DIES)
                    counters.record("scheduler", dies_active=NUM_DIES)
                    counters.record("register_file", dies_active=NUM_DIES)
                    counters.record("rob", dies_active=NUM_DIES)

            # Train the width predictor on the architectural outcome.
            if th and op.is_integer_datapath:
                self.width_predictor.record_and_train(inst.pc, predicted_low, actual_low)

            # Branch resolution.
            if op.is_control and mispredicted:
                next_fetch_floor = max(
                    next_fetch_floor, complete_cycle + cfg.redirect_penalty
                )
                redirect_pending = True

            # ---------------- COMMIT ---------------- #
            commit_cycle = max(complete_cycle + 1, last_commit_cycle)
            if commit_cycle == last_commit_cycle and committed_in_cycle >= cfg.commit_width:
                commit_cycle += 1
            if commit_cycle != last_commit_cycle:
                committed_in_cycle = 0
                last_commit_cycle = commit_cycle
            committed_in_cycle += 1

            # CPI-stack attribution for this instruction's commit gap.
            stall_total_now = self.stalls.total
            if th and stall_total_now != stalls_before:
                category = "width"
            elif op.is_control and mispredicted:
                category = "branch"
            elif memory_miss:
                category = "memory"
            elif frontend_miss:
                category = "frontend"
            elif ready > dispatch_cycle + 1:
                category = "dependency"
            elif issue_cycle > earliest:
                category = "structural"
            else:
                category = "base"
            gap = commit_cycle - prev_commit_for_stack
            if gap > 0:
                cpi_stack[category] = cpi_stack.get(category, 0) + gap
            prev_commit_for_stack = commit_cycle

            if op is OpClass.STORE:
                assert inst.mem_addr is not None
                self.hierarchy.store(inst.mem_addr)
                if th:
                    self.dcache_model.record_store(
                        inst.mem_addr,
                        inst.mem_value if inst.mem_value is not None else 0,
                    )
                else:
                    counters.record("l1_dcache", dies_active=NUM_DIES)

            heapq.heappush(rob_heap, commit_cycle)
            heapq.heappush(rs_heap, issue_cycle + 1)
            if op is OpClass.LOAD:
                heapq.heappush(lq_heap, commit_cycle)
            elif op is OpClass.STORE:
                heapq.heappush(sq_heap, commit_cycle)

        total_cycles = (last_commit_cycle - cycle_base) if trace.instructions else 0
        herding = self._herding_metrics()
        return SimulationResult(
            benchmark=trace.name,
            benchmark_class=trace.benchmark_class,
            config_name=cfg.name,
            clock_ghz=cfg.clock_ghz,
            instructions=len(trace) - warmup,
            cycles=max(total_cycles, 1),
            activity=counters,
            branch_stats=self.frontend.stats,
            cache_stats={
                "l1i": self.hierarchy.l1i.stats,
                "l1d": self.hierarchy.l1d.stats,
                "l2": self.hierarchy.l2.stats,
                "itlb": self.hierarchy.itlb.stats,
                "dtlb": self.hierarchy.dtlb.stats,
            },
            width_stats=self.width_predictor.stats if th else None,
            stalls=self.stalls,
            herding=herding,
            cpi_stack=cpi_stack,
        )

    # ------------------------------------------------------------------ #

    def run_compiled(self, pre: PreDecodedTrace, warmup: int = 0,
                     prewarm: bool = True,
                     capture: Optional["IntervalCapture"] = None
                     ) -> SimulationResult:
        """The batched wavefront twin of :meth:`run`.

        Everything per-instruction that does not depend on dynamic cycle
        counts is precomputed by :mod:`repro.cpu.wavefront` into plan
        columns (front-end outcomes, cache-miss latencies, BTB bubbles)
        and static result pieces (branch/cache stats, herding tallies,
        position-ordered activity counts).  The loop below keeps only the
        genuinely serial resources: ROB/RS/LQ/SQ/IFQ entry occupancy,
        functional-unit and MSHR free-at heaps, per-cycle
        fetch/dispatch/issue/commit bandwidth, the dependency scoreboard,
        and the width-state machines whose decisions feed timing
        (predictor counters, register memoization bits, L1D encodings).  It performs no activity
        recording and no model method calls; the handful of
        width-dependent activity splits are tallied in locals and merged
        with the static counts by
        :meth:`~repro.cpu.wavefront.WavefrontPlan.build_activity`, which
        reproduces the reference loop's module creation order.  The
        returned :class:`SimulationResult` pickles byte-identically to
        :meth:`run`'s (the equivalence tests enforce this).

        ``capture`` (an :class:`~repro.cpu.wavefront.IntervalCapture`)
        snapshots the running dynamic tallies at interval boundaries for
        interval power extraction; when None the loop pays a single
        boolean check per instruction and the result is unchanged.
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
        col_is_intdp = pre.is_intdp
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

        # Width-state machines, inlined.  Predictor counters, the sticky
        # full-width overrides of the static profile, and the register
        # memoization bits all evolve *with* loop state (stalls consult
        # them, corrections write them back), so they stay in the loop —
        # as plain dict/list operations instead of model calls.
        dynamic_kind = static_kind = oracle_kind = False
        wp_table: List[int] = []
        wp_index: List[int] = []
        wp_threshold = wp_max = 0
        wp_profile_get = None
        wp_merged: Dict[int, bool] = {}
        top_first = True
        sched_cap = 1
        if th:
            from repro.core.scheduler_allocation import AllocationPolicy
            from repro.core.static_width import StaticWidthPredictor
            from repro.cpu.config import WidthPredictorKind

            kind = cfg.width_predictor_kind
            if kind is WidthPredictorKind.ORACLE:
                oracle_kind = True
            elif isinstance(self.width_predictor, StaticWidthPredictor):
                static_kind = True
                self.width_predictor = StaticWidthPredictor(pre.width_profile())
                # Profile lookups and the sticky full-width overrides
                # merge into one dict: a correction pins its PC to False.
                wp_merged = dict(pre.width_profile())
                wp_profile_get = wp_merged.get
            else:
                dynamic_kind = True
                wp = self.width_predictor
                wp_table = wp._table
                wp_threshold = wp._threshold
                wp_max = wp._max_count
                wp_index = pre.pred_index(wp._mask)
            top_first = cfg.scheduler_policy is AllocationPolicy.TOP_FIRST
            sched_cap = rs_size // 4

        # Fetch state
        next_fetch_floor = 0
        fetch_cycle = 0
        fetched_in_cycle = 0

        # Dispatch state
        dispatch_floor = 0
        last_dispatch_cycle = -1
        dispatched_in_cycle = 0

        # Entry occupancy.  Every structure starts full of entries freed
        # at cycle 0, which never bind, so an allocation always takes the
        # earliest-freed entry without a fullness test.  Each instruction
        # takes one ROB entry and one IFQ slot, freed in program order,
        # so instruction ``index`` reuses the entry of instruction
        # ``index - size`` and waits for its commit (ROB) or dispatch
        # (IFQ) cycle: the columns store instruction ``i``'s cycle at
        # ``i + size``.  LQ/SQ entries also free in order (FIFO popleft
        # == heappop).  RS entries do not, so a bisect-sorted list keeps
        # pop-min cheap and turns occupancy counts into binary searches
        # (the zero entries never count as busy).
        committed = [0] * (n + rob_size)
        dispatched = [0] * (n + ifq_size)
        rs_list = [0] * rs_size
        lq_q = deque([0] * cfg.lq_size)
        sq_q = deque([0] * cfg.sq_size)

        # Issue state (same pruning discipline as the reference loop).
        # Each functional-unit pool is its min-heap of next-free cycles;
        # an issue takes the root and pushes back its next-free cycle.
        issued_in_cycle: Dict[int, int] = {}
        issue_prune_at = 4096
        pools, pool_for_op = _build_pools(cfg)
        heap_by_code = [pool_for_op[op].free for op in OPCLASS_LIST]
        ld_st_heap = pools["ld_st"].free
        ld_only_heap = pools["ld_only"].free
        mshr_heap = _Pool(cfg.mshr_entries).free
        heapreplace = heapq.heapreplace

        # Dependency scoreboard: completion cycle per producing
        # instruction.  The writer columns map each source operand slot to
        # its producer index, replacing the per-register ready dict; a
        # slot without a producer (-1) reads the trailing zero, which is
        # never written.
        completes = [0] * (n + 1)
        # Register width memoization bits (the partitioned register
        # file's lazily installed state).
        memo: Dict[int, bool] = {}
        memo_get = memo.get

        # Commit state
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
        dc_herded = dc_unsafe = 0
        wp_hits = wp_unsafe = wp_safe = 0
        sched_die = [0, 0, 0, 0]
        sched_rr = 0  # persists across the warmup boundary, like the model

        cpi_stack: Dict[str, int] = {}
        prev_commit_for_stack = 0

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
                dc_herded = dc_unsafe = 0
                wp_hits = wp_unsafe = wp_safe = 0
                sched_die = [0, 0, 0, 0]
                cycle_base = last_commit_cycle
                cpi_stack = {}
                prev_commit_for_stack = last_commit_cycle
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
            frontend_miss = False
            if new_line:
                extra = col_fetch_extra[index]
                if extra:
                    fetch_cycle += extra
                    frontend_miss = True
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
            intdp = col_is_intdp[index]
            predict_width = th and intdp
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
            if dispatch_cycle < dispatch_floor:
                dispatch_cycle = dispatch_floor
            if (dispatch_cycle == last_dispatch_cycle
                    and dispatched_in_cycle >= decode_width):
                dispatch_cycle += 1
            freed = committed[index]  # ROB entry reused
            if freed > dispatch_cycle:
                dispatch_cycle = freed
            freed = rs_list.pop(0)
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
                        m = memo_get(src)
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
                        m = memo_get(src)
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
            dispatch_floor = dispatch_cycle
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
            count = issued_in_cycle.get(issue_cycle, 0)
            while count >= issue_width:
                issue_cycle += 1
                count = issued_in_cycle.get(issue_cycle, 0)
            issued_in_cycle[issue_cycle] = count + 1
            if not count and len(issued_in_cycle) >= issue_prune_at:
                # Only a new cycle grows the map.  Entries at or below the
                # dispatch floor are dead: every future probe targets a
                # cycle > dispatch_floor.
                issued_in_cycle = {
                    cycle: issued
                    for cycle, issued in issued_in_cycle.items()
                    if cycle > dispatch_floor
                }
                issue_prune_at = max(4096, 2 * len(issued_in_cycle))

            # ---------------- EXECUTE ---------------- #
            latency = col_latency[index]
            memory_miss = False
            if is_load:
                access_cycles = col_load_cycles[index]
                memory_miss = col_memory_miss[index]
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
                            dc_unsafe += 1
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
                    # Entry-stacked scheduler wakeup gating, inlined: the
                    # broadcast wakes the dies holding still-busy entries
                    # (occupancy == RS free-at cycles past completion).
                    occ = len(rs_list) - bisect_right(rs_list, complete_cycle)
                    if top_first:
                        if occ == 0:
                            dies = 1
                        else:
                            dies = -(-occ // sched_cap)
                        for die in range(dies):
                            sched_die[die] += 1
                    else:
                        if occ == 0:
                            dies = 1
                        elif occ < 4:
                            dies = occ
                        else:
                            dies = 4
                        for offset in range(dies):
                            sched_die[(sched_rr + offset) & 3] += 1
                        sched_rr = (sched_rr + 1) & 3

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
            if commit_cycle < last_commit_cycle:
                commit_cycle = last_commit_cycle
            if (commit_cycle == last_commit_cycle
                    and committed_in_cycle >= commit_width):
                commit_cycle += 1
            if commit_cycle != last_commit_cycle:
                committed_in_cycle = 0
                last_commit_cycle = commit_cycle
            committed_in_cycle += 1

            # CPI-stack attribution.
            if stalled:
                category = "width"
            elif mispredicted:
                category = "branch"
            elif memory_miss:
                category = "memory"
            elif frontend_miss:
                category = "frontend"
            elif ready > dispatch_cycle + 1:
                category = "dependency"
            elif issue_cycle > earliest:
                category = "structural"
            else:
                category = "base"
            gap = commit_cycle - prev_commit_for_stack
            if gap > 0:
                cpi_stack[category] = cpi_stack.get(category, 0) + gap
            prev_commit_for_stack = commit_cycle

            committed[index + rob_size] = commit_cycle
            insort(rs_list, issue_cycle + 1)
            if is_load:
                lq_q.append(commit_cycle)
            elif is_store:
                sq_q.append(commit_cycle)

            if capture_marks is not None and capture_marks[index]:
                capture.record(rf1, rf4, alu1, alu4, l1d1, l1d4,
                               sched_die, last_commit_cycle)

        if capture is not None:
            capture.finish(cycle_base)

        # ---------------- RESULT ASSEMBLY ---------------- #
        self.stalls = StallBreakdown(
            rf_group_stalls=rf_group_stalls,
            alu_input_stalls=alu_input_stalls,
            alu_reexecutions=alu_reexecutions,
            dcache_width_stalls=dcache_width_stalls,
            btb_memoization_stalls=btb_memoization_stalls,
        )
        activity = plan.build_activity(
            rf1, rf4, first_rf, alu1, alu4, l1d1, l1d4, sched_die
        )
        self.counters = activity
        self.frontend.stats = plan.branch_stats
        if th:
            predictions = plan.wp_predictions
            if oracle_kind:
                self.width_predictor.stats = WidthPredictorStats(
                    predictions=predictions, correct=predictions
                )
            else:
                self.width_predictor.stats = WidthPredictorStats(
                    predictions=predictions,
                    correct=wp_hits,
                    unsafe_mispredictions=wp_unsafe,
                    safe_mispredictions=wp_safe,
                )
            self.pam.broadcasts = plan.pam_broadcasts
            self.pam.herded = plan.pam_herded_count
            self.dcache_model.loads = plan.dc_loads
            self.dcache_model.herded_loads = dc_herded
            self.dcache_model.unsafe_stalls = dc_unsafe
            self.scheduler.broadcasts = plan.sched_broadcasts
            self.scheduler.broadcast_die_sum = (
                sched_die[0] + sched_die[1] + sched_die[2] + sched_die[3]
            )
            memoized = self.frontend.memoized_btb
            memoized.lookups = plan.memo_btb_lookups
            memoized.far_target_stalls = plan.memo_btb_far

        total_cycles = (last_commit_cycle - cycle_base) if n else 0
        herding = self._herding_metrics()
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
            width_stats=self.width_predictor.stats if th else None,
            stalls=self.stalls,
            herding=herding,
            cpi_stack=cpi_stack,
        )

    # ------------------------------------------------------------------ #

    def _herding_metrics(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        if self.pam is not None:
            metrics["pam_herded"] = self.pam.herded_fraction
        if self.dcache_model is not None:
            metrics["dcache_herded_loads"] = self.dcache_model.herded_load_fraction
        if self.scheduler is not None:
            metrics["scheduler_dies_per_broadcast"] = self.scheduler.mean_dies_per_broadcast
        if self.frontend.memoized_btb is not None:
            metrics["btb_herded"] = self.frontend.memoized_btb.herded_fraction
        for name, module in self.counters.modules().items():
            if module.total:
                metrics[f"herded::{name}"] = module.herded_fraction
        return metrics


def simulate(trace: Union[Trace, CompiledTrace], config: CPUConfig,
             warmup: int = 0) -> SimulationResult:
    """Convenience wrapper: run ``trace`` under ``config``.

    ``warmup`` instructions at the head of the trace warm caches and
    predictors without contributing to the reported metrics (the trace
    analogue of SimPoint's warmed simulation points).

    Accepts either an object-form :class:`Trace` or a
    :class:`~repro.isa.compiled.CompiledTrace`.  By default the columnar
    fast path is used (compiling object traces on first use); setting
    ``REPRO_COLUMNAR=0`` forces the reference loop, which produces
    byte-identical results by construction.  A trace the columnar layout
    cannot represent falls back to the reference loop transparently.
    """
    if isinstance(trace, Trace):
        if columnar_enabled():
            compiled = trace.compiled()
            if compiled is not None:
                return TimingSimulator(config, batched=True).run_compiled(
                    predecode(compiled), warmup=warmup
                )
        return TimingSimulator(config).run(trace, warmup=warmup)
    if columnar_enabled():
        return TimingSimulator(config, batched=True).run_compiled(
            predecode(trace), warmup=warmup
        )
    return TimingSimulator(config).run(trace.to_trace(), warmup=warmup)
