"""Functional emulator: synthetic program -> committed-instruction trace.

The emulator walks a :class:`~repro.workloads.program.SyntheticProgram`,
maintaining a real architectural register file and a lazy data memory, and
appends one :data:`~repro.isa.compiled.TRACE_DTYPE` row tuple per
committed instruction; :meth:`Emulator.run` turns the rows into the
compiled columnar array in one call, so a generated trace is compiled
from birth.  All value widths, address upper bits, and branch targets in
the trace are therefore *computed*, which is what lets the Thermal
Herding statistics emerge naturally downstream.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa.compiled import OP_CODE, CompiledTrace, rows_to_array
from repro.isa.opcodes import OpClass
from repro.isa.registers import TOTAL_REGS, STACK_POINTER_REG, ZERO_REG
from repro.isa.trace import Trace
from repro.isa.values import to_unsigned
from repro.workloads.memory_model import (
    AccessPattern,
    MemoryModel,
    STACK_BASE,
    STACK_SIZE,
    WORD_BYTES,
)
from repro.workloads.parameters import WorkloadParameters
from repro.workloads.program import (
    InstTemplate,
    LeafFunction,
    Loop,
    SyntheticProgram,
    ValueKind,
    build_program,
)

#: Trace-generator version, part of the on-disk result-cache key.  Bump on
#: any change that alters generated traces so stale entries never hit.
GENERATOR_VERSION = 1

_MASK64 = (1 << 64) - 1

_BRANCH_OP = OpClass.BRANCH
_CALL_OP = OpClass.CALL
_LOAD_OP = OpClass.LOAD
_STORE_OP = OpClass.STORE
_JUMP_CODE = OP_CODE[OpClass.JUMP]
_CALL_CODE = OP_CODE[OpClass.CALL]
_RETURN_CODE = OP_CODE[OpClass.RETURN]


def _transfer_row(pc: int, op: int, target: int) -> tuple:
    """The row of a taken, operand-free control transfer."""
    return (pc, op, 0, 0, 0, 0, -1, 0, 0, 0,
            False, 0, False, 0, True, True, target)


def _static_columns(program: SyntheticProgram) -> Dict[int, Tuple[tuple, int, int]]:
    """Per static instruction pc: its constant row prefix (``pc``, ``op``,
    ``nsrcs``, ``nvals``, ``src0``, ``src1``, ``dst``) and the two
    registers its source-value columns read.

    A missing source reads :data:`ZERO_REG`, which no instruction writes,
    so its value column holds 0, as the compiled layout requires.
    """
    templates = [t for loop in program.loops
                 for t in (*loop.preamble, *loop.body, loop.back_edge)]
    templates += [t for leaf in program.leaves for t in leaf.body]
    static = {}
    for t in templates:
        src0, src1 = (t.srcs + (0, 0))[:2]
        read0, read1 = (t.srcs + (ZERO_REG, ZERO_REG))[:2]
        prefix = (t.pc, OP_CODE[t.op], len(t.srcs), len(t.srcs), src0, src1,
                  -1 if t.dst is None else t.dst)
        static[t.pc] = (prefix, read0, read1)
    return static


class Emulator:
    """Walks a synthetic program and produces a trace."""

    def __init__(self, program: SyntheticProgram, seed: int):
        self._program = program
        self._params = program.parameters
        # Independent random streams: control flow, memory values, layout.
        self._flow_rng = random.Random(seed ^ 0xC0FFEE)
        mem_rng = random.Random(seed ^ 0xDA7A)
        self._memory = MemoryModel(
            value_dist=self._params.value_dist,
            footprint_bytes=self._params.footprint_bytes,
            rng=mem_rng,
        )
        self._regs: List[int] = [0] * TOTAL_REGS
        self._regs[STACK_POINTER_REG] = STACK_BASE + STACK_SIZE // 2
        # Initialize pointer registers into the heap so first uses are sane.
        for reg in range(24, 30):
            self._regs[reg] = self._memory.heap.align(mem_rng.randrange(0, self._params.footprint_bytes))
        self._cursors: Dict[int, int] = {}
        self._branch_counts: Dict[int, int] = {}
        self._static = _static_columns(program)
        self._out: List[tuple] = []
        self._limit = 0

    def run(self, length: int) -> np.ndarray:
        """Emit at least ``length`` rows, truncate to ``length``, and
        return them as one :data:`~repro.isa.compiled.TRACE_DTYPE` array."""
        if length <= 0:
            raise ValueError(f"trace length must be positive, got {length}")
        self._out = []
        self._limit = length
        loops = self._program.loops
        loop_order = list(range(len(loops)))
        previous: Optional[int] = None
        while len(self._out) < length:
            self._flow_rng.shuffle(loop_order)
            for index in loop_order:
                if previous is not None:
                    # Keep the committed path sequential across loops.
                    self._out.append(_transfer_row(
                        loops[previous].exit_jump.pc, _JUMP_CODE,
                        loops[index].entry_pc))
                    if len(self._out) >= length:
                        break
                self._run_loop(loops[index])
                previous = index
                if len(self._out) >= length:
                    break
        del self._out[length:]
        return rows_to_array(self._out)

    # ------------------------------------------------------------------ #

    def _run_loop(self, loop: Loop) -> None:
        trips = 1 + self._geometric(loop.mean_trip_count)
        for template in loop.preamble:
            if len(self._out) >= self._limit:
                return
            self._execute(template)
        for trip in range(trips):
            if len(self._out) >= self._limit:
                return
            self._run_body(loop.body, loop.back_edge.pc)
            last_trip = trip == trips - 1
            self._emit_branch(loop.back_edge, taken=not last_trip, target=loop.start_pc)

    def _run_body(self, body: List[InstTemplate], back_edge_pc: int) -> None:
        out, limit = self._out, self._limit
        i = 0
        while i < len(body) and len(out) < limit:
            template = body[i]
            op = template.op
            if op is _BRANCH_OP and not template.is_back_edge:
                taken = self._branch_outcome(template)
                skip = template.skip_count if taken else 0
                if taken:
                    landing = i + skip + 1
                    target = body[landing].pc if landing < len(body) else back_edge_pc
                else:
                    target = 0
                self._emit_branch(template, taken=taken, target=target)
                i += skip + 1
                continue
            if op is _CALL_OP:
                assert template.callee is not None
                self._run_call(template, self._program.leaves[template.callee])
                i += 1
                continue
            self._execute(template)
            i += 1

    def _run_call(self, call: InstTemplate, leaf: LeafFunction) -> None:
        self._out.append(_transfer_row(call.pc, _CALL_CODE, leaf.entry_pc))
        for template in leaf.body:
            if len(self._out) >= self._limit:
                return
            self._execute(template)
        self._out.append(_transfer_row(leaf.ret.pc, _RETURN_CODE, call.pc + 4))

    def _branch_outcome(self, template: InstTemplate) -> bool:
        """Outcome of a forward conditional branch.

        Periodic branches are taken except on the last occurrence of each
        period (with a small noise probability); others are biased coins.
        """
        if template.pattern_period:
            count = self._branch_counts.get(template.pc, 0)
            self._branch_counts[template.pc] = count + 1
            taken = (count % template.pattern_period) != template.pattern_period - 1
            if self._flow_rng.random() < self._params.branch_noise:
                taken = not taken
            return taken
        return self._flow_rng.random() < template.taken_bias

    # ------------------------------------------------------------------ #

    def _emit_branch(self, template: InstTemplate, taken: bool, target: int) -> None:
        prefix, read0, read1 = self._static[template.pc]
        regs = self._regs
        self._out.append(prefix + (0, regs[read0], regs[read1],
                                   False, 0, False, 0,
                                   taken, taken, target if taken else 0))

    def _execute(self, template: InstTemplate) -> None:
        if template.op is _LOAD_OP:
            self._execute_load(template)
        elif template.op is _STORE_OP:
            self._execute_store(template)
        else:
            self._execute_alu(template)

    def _execute_alu(self, template: InstTemplate) -> None:
        prefix, read0, read1 = self._static[template.pc]
        regs = self._regs
        a, b = regs[read0], regs[read1]
        result = self._compute(template, a, b)
        if template.dst is not None and template.dst != ZERO_REG:
            regs[template.dst] = result
        self._out.append(prefix + (result, a, b, False, 0, False, 0,
                                   False, False, 0))

    def _compute(self, template: InstTemplate, a: int, b: int) -> int:
        """The result from source values ``a`` and ``b`` (0 if absent)."""
        kind = template.value_kind
        if kind is ValueKind.COUNTER or kind is ValueKind.STRIDE:
            return (a + max(template.immediate, 1)) & _MASK64
        if kind is ValueKind.CONST_SMALL or kind is ValueKind.CONST_WIDE:
            return to_unsigned(template.immediate)
        if kind is ValueKind.ACCUM:
            return (a + b) & _MASK64
        if kind is ValueKind.LOGIC:
            if template.pc & 4:
                return a ^ b
            return a & b
        if kind is ValueKind.ADDR_UPDATE:
            assert template.cursor_id is not None
            return self._advance_cursor(template)
        if kind is ValueKind.FP_OP:
            # FP bit patterns: wide, but not on the integer datapath.
            mixed = (a * 0x9E3779B97F4A7C15 + b) & _MASK64
            return mixed | (0x3FF << 52)
        return 0

    # ------------------------------------------------------------------ #

    def _advance_cursor(self, template: InstTemplate) -> int:
        """Advance a memory cursor and return the new heap address."""
        cursor_id = template.cursor_id
        assert cursor_id is not None
        heap = self._memory.heap
        if template.pattern in (AccessPattern.SEQUENTIAL, AccessPattern.STRIDED):
            # Each cursor walks a bounded stream buffer and wraps, modelling
            # repeated traversal of frames/grids/arrays.
            advance = self._cursors.get(cursor_id, 0)
            advance += template.immediate or WORD_BYTES
            self._cursors[cursor_id] = advance
            stream = min(self._params.stream_bytes, heap.size)
            base = (cursor_id * (stream // 2)) % max(heap.size - stream, 1)
            return heap.align(base + advance % stream)
        # RANDOM: temporal locality — most accesses land in one of a few
        # shared hot subsets; the rest roam the full footprint.
        params = self._params
        if self._flow_rng.random() < params.hot_fraction:
            hot = min(params.hot_bytes, heap.size)
            base = (cursor_id % 4) * hot
            return heap.align(base + self._flow_rng.randrange(0, hot))
        return heap.align(self._flow_rng.randrange(0, heap.size))

    def _effective_address(self, template: InstTemplate) -> int:
        if template.pattern is AccessPattern.STACK:
            offset = ((template.cursor_id or 0) * 16) % (STACK_SIZE // 4)
            return self._regs[STACK_POINTER_REG] - offset & ~(WORD_BYTES - 1)
        heap = self._memory.heap
        pointer = self._regs[template.srcs[0]]
        if template.pattern is AccessPattern.CHASE:
            # Chases walk a bounded linked structure: small pools are
            # revisited (cache resident) while mcf-scale pools stay memory
            # bound.  The register usually holds a pool pointer already
            # (see the chase-load successor rule); anything else is hashed
            # into the pool.
            pool = min(self._params.chase_pool_bytes, heap.size)
            if heap.base <= pointer < heap.base + pool:
                return pointer & ~(WORD_BYTES - 1)
            mixed = (pointer * 0x9E3779B97F4A7C15) & _MASK64
            return (heap.base + mixed % pool) & ~(WORD_BYTES - 1)
        # Pointer register already holds a heap address (from ADDR_UPDATE);
        # clamp it into the heap to stay valid.
        if heap.contains(pointer):
            return pointer & ~(WORD_BYTES - 1)
        return heap.align(pointer)

    def _execute_load(self, template: InstTemplate) -> None:
        prefix, read0, read1 = self._static[template.pc]
        regs = self._regs
        a, b = regs[read0], regs[read1]
        addr = self._effective_address(template)
        value = self._memory.read(addr)
        result = value
        if template.pattern is AccessPattern.CHASE:
            # A chase node must hold a pointer to its successor.  When the
            # materialized value is not a pool pointer, derive a stable
            # successor from the node's own address (each node then has a
            # distinct, stationary next-node — a real linked structure),
            # and persist it.
            heap = self._memory.heap
            pool = min(self._params.chase_pool_bytes, heap.size)
            if not (heap.base <= value < heap.base + pool):
                mixed = (addr * 0x9E3779B97F4A7C15) & _MASK64
                result = (heap.base + mixed % pool) & ~(WORD_BYTES - 1)
                self._memory.write(addr, result)
                value = result
        if template.dst is not None and template.dst != ZERO_REG:
            regs[template.dst] = result
        self._out.append(prefix + (result, a, b, True, addr, True, value,
                                   False, False, 0))

    def _execute_store(self, template: InstTemplate) -> None:
        prefix, read0, read1 = self._static[template.pc]
        regs = self._regs
        a, value = regs[read0], regs[read1]
        addr = self._effective_address(template)
        self._memory.write(addr, value)
        self._out.append(prefix + (0, a, value, True, addr, True, value,
                                   False, False, 0))

    def _geometric(self, mean: float) -> int:
        """Geometric sample with the given mean (>= 0)."""
        if mean <= 1.0:
            return 0
        p = 1.0 / mean
        count = 0
        while self._flow_rng.random() > p and count < 10_000:
            count += 1
        return count


def workload_fingerprint(
    name: str,
    params: WorkloadParameters,
    length: int,
    seed: int,
    benchmark_class: str = "unknown",
) -> str:
    """Content hash identifying the trace :func:`generate_trace` would emit.

    Covers everything generation depends on — the parameters, the seed,
    the requested length, and :data:`GENERATOR_VERSION` — so it can key a
    persistent store of generated (compiled) traces: equal fingerprints
    guarantee byte-identical traces, and any generator change invalidates
    every stored entry via the version bump.
    """
    payload = {
        "generator": GENERATOR_VERSION,
        "name": name,
        "benchmark_class": benchmark_class,
        "length": length,
        "seed": seed,
        "params": dataclasses.asdict(params),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def generate_trace(
    name: str,
    params: WorkloadParameters,
    length: int,
    seed: int,
    benchmark_class: str = "unknown",
) -> Trace:
    """Build a program from ``params``/``seed`` and emulate ``length`` insts."""
    program = build_program(params, seed)
    array = Emulator(program, seed).run(length)
    return Trace.from_compiled(CompiledTrace(name, benchmark_class, seed, array))
