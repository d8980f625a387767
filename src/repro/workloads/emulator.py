"""Functional emulator: synthetic program -> committed-instruction trace.

The emulator walks a :class:`~repro.workloads.program.SyntheticProgram`,
maintaining a real architectural register file and a lazy data memory, and
appends one :data:`~repro.isa.compiled.TRACE_DTYPE` row per committed
instruction, packed as bytes with :data:`~repro.isa.compiled.TRACE_ROW`;
:meth:`Emulator.run` views the joined rows as the compiled columnar
array, so a generated trace is compiled from birth.  Each static
instruction is decoded once into an :class:`_Op` whose dispatch code
selects how one interpreter loop executes it.  All value widths, address upper bits, and branch targets in
the trace are therefore *computed*, which is what lets the Thermal
Herding statistics emerge naturally downstream.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import struct
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.isa.compiled import (
    OP_CODE,
    TRACE_DTYPE,
    TRACE_ROW,
    CompiledTrace,
    out_of_range,
)
from repro.isa.opcodes import OpClass
from repro.isa.registers import TOTAL_REGS, STACK_POINTER_REG, ZERO_REG
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
    Loop,
    SyntheticProgram,
    ValueKind,
    build_program,
)

#: Trace-generator version, part of the on-disk result-cache key.  Bump on
#: any change that alters generated traces so stale entries never hit.
GENERATOR_VERSION = 1

_MASK64 = (1 << 64) - 1

_JUMP_CODE = OP_CODE[OpClass.JUMP]
_CALL_CODE = OP_CODE[OpClass.CALL]
_RETURN_CODE = OP_CODE[OpClass.RETURN]

# Per-template dispatch codes.  The ALU codes come first, so one
# comparison separates them from the rest; each names how the result
# is computed from the source values ``a`` and ``b``.
_ADD_IMM = 0    # COUNTER / STRIDE: a + max(immediate, 1)
_CONST = 1      # CONST_SMALL / CONST_WIDE: the immediate
_ACCUM = 2      # a + b
_XOR = 3        # LOGIC at a pc with bit 2 set
_AND = 4        # LOGIC otherwise
_CURSOR = 5     # ADDR_UPDATE: the next address of a memory cursor
_FP = 6         # FP_OP: a wide bit pattern mixed from a and b
_ZERO = 7       # any other op: 0
_BRANCH = 8     # a forward conditional branch
_CALL = 9
_LOAD = 10
_STORE = 11

#: The register an ALU op without an architectural destination writes: a
#: slot past the register file that no instruction reads, so every ALU
#: op can store its result unconditionally.
_SINK = TOTAL_REGS

_ALU_CODES = {
    ValueKind.COUNTER: _ADD_IMM,
    ValueKind.STRIDE: _ADD_IMM,
    ValueKind.CONST_SMALL: _CONST,
    ValueKind.CONST_WIDE: _CONST,
    ValueKind.ACCUM: _ACCUM,
    ValueKind.ADDR_UPDATE: _CURSOR,
    ValueKind.FP_OP: _FP,
}


_pack = TRACE_ROW.pack
_ROW_BYTES = TRACE_ROW.size


def _transfer_row(pc: int, op: int, target: int) -> bytes:
    """The row of a taken, operand-free control transfer."""
    return _pack(pc, op, 0, 0, 0, 0, -1, 0, 0, 0,
                 False, 0, False, 0, True, True, target)


class _Op(NamedTuple):
    """One static instruction, decoded once per program.

    ``prefix`` is its constant row prefix (``pc``, ``op``, ``nsrcs``,
    ``nvals``, ``src0``, ``src1``, ``dst``); ``read0``/``read1`` are the
    registers its source-value columns read (a missing source reads
    :data:`ZERO_REG`, which no instruction writes, so its value column
    holds 0, as the compiled layout requires); ``write`` is the register
    an ALU or load result goes to (:data:`_SINK` when none); ``arg`` is
    the immediate of ``_ADD_IMM``/``_CONST`` and the callee's ops of
    ``_CALL``.
    """

    code: int
    prefix: tuple
    read0: int
    read1: int
    write: int
    arg: object
    template: InstTemplate


def _decode(template: InstTemplate, leaves: List[List[_Op]]) -> _Op:
    """Decode ``template``; ``leaves`` holds each leaf function's ops."""
    op = template.op
    if op is OpClass.BRANCH and not template.is_back_edge:
        code = _BRANCH
    elif op is OpClass.CALL:
        code = _CALL
    elif op is OpClass.LOAD:
        code = _LOAD
    elif op is OpClass.STORE:
        code = _STORE
    elif template.value_kind is ValueKind.LOGIC:
        code = _XOR if template.pc & 4 else _AND
    else:
        code = _ALU_CODES.get(template.value_kind, _ZERO)
    arg: object = None
    if code == _ADD_IMM:
        arg = max(template.immediate, 1)
    elif code == _CONST:
        arg = to_unsigned(template.immediate)
    elif code == _CALL:
        assert template.callee is not None
        arg = leaves[template.callee]
    src0, src1 = (template.srcs + (0, 0))[:2]
    read0, read1 = (template.srcs + (ZERO_REG, ZERO_REG))[:2]
    dst = template.dst
    prefix = (template.pc, OP_CODE[op], len(template.srcs),
              len(template.srcs), src0, src1, -1 if dst is None else dst)
    write = _SINK if dst is None or dst == ZERO_REG else dst
    return _Op(code, prefix, read0, read1, write, arg, template)


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
        self._regs: List[int] = [0] * (TOTAL_REGS + 1)  # + the _SINK slot
        self._regs[STACK_POINTER_REG] = STACK_BASE + STACK_SIZE // 2
        # Initialize pointer registers into the heap so first uses are sane.
        for reg in range(24, 30):
            self._regs[reg] = self._memory.heap.align(mem_rng.randrange(0, self._params.footprint_bytes))
        self._cursors: Dict[int, int] = {}
        self._branch_counts: Dict[int, int] = {}
        self._leaves = [[_decode(t, []) for t in leaf.body]
                        for leaf in program.leaves]
        self._loops = [
            ([_decode(t, self._leaves) for t in loop.preamble],
             [_decode(t, self._leaves) for t in loop.body],
             _decode(loop.back_edge, self._leaves))
            for loop in program.loops
        ]
        # The packed rows emitted so far, and the byte length at which
        # emission stops.
        self._out = bytearray()
        self._limit = 0

    def run(self, length: int) -> np.ndarray:
        """Emit at least ``length`` rows, truncate to ``length``, and
        return them as one :data:`~repro.isa.compiled.TRACE_DTYPE` array.

        Each row is packed with :data:`~repro.isa.compiled.TRACE_ROW` as
        it is emitted, into one buffer that the array views.
        """
        if length <= 0:
            raise ValueError(f"trace length must be positive, got {length}")
        self._out = bytearray()
        self._limit = length * _ROW_BYTES
        try:
            self._emit()
        except struct.error as exc:
            raise out_of_range(exc) from exc
        # Slicing drops the rows past the limit and the spare capacity.
        return np.frombuffer(self._out[:self._limit], dtype=TRACE_DTYPE)

    def _emit(self) -> None:
        """Run the loops in shuffled rounds until the limit is reached."""
        loops = self._program.loops
        loop_order = list(range(len(loops)))
        previous: Optional[int] = None
        limit = self._limit
        while len(self._out) < limit:
            self._flow_rng.shuffle(loop_order)
            for index in loop_order:
                if previous is not None:
                    # Keep the committed path sequential across loops.
                    self._out += _transfer_row(
                        loops[previous].exit_jump.pc, _JUMP_CODE,
                        loops[index].entry_pc)
                    if len(self._out) >= limit:
                        break
                self._run_loop(loops[index], *self._loops[index])
                previous = index
                if len(self._out) >= limit:
                    break

    # ------------------------------------------------------------------ #

    def _run_loop(self, loop: Loop, preamble: List[_Op], body: List[_Op],
                  back_edge: _Op) -> None:
        trips = 1 + self._geometric(loop.mean_trip_count)
        self._run_body(preamble, 0)
        for trip in range(trips):
            if len(self._out) >= self._limit:
                return
            self._run_body(body, back_edge.prefix[0])
            last_trip = trip == trips - 1
            self._emit_branch(back_edge, taken=not last_trip, target=loop.start_pc)

    def _run_body(self, body: List[_Op], back_edge_pc: int) -> None:
        """Execute ``body`` until it ends or the trace is long enough.

        The one interpreter loop: ALU ops run inline, dispatched on their
        precomputed code; a taken forward branch skips ahead.  Rows
        emitted past the limit are truncated by :meth:`run`.
        """
        out, limit, regs = self._out, self._limit, self._regs
        size = len(body)
        i = 0
        while i < size and len(out) < limit:
            code, prefix, read0, read1, write, arg, template = body[i]
            i += 1
            if code <= _ZERO:
                a = regs[read0]
                b = regs[read1]
                if code == _ADD_IMM:
                    result = (a + arg) & _MASK64
                elif code == _CONST:
                    result = arg
                elif code == _ACCUM:
                    result = (a + b) & _MASK64
                elif code == _XOR:
                    result = a ^ b
                elif code == _AND:
                    result = a & b
                elif code == _CURSOR:
                    result = self._advance_cursor(template)
                elif code == _FP:
                    # FP bit patterns: wide, but not on the integer datapath.
                    result = ((a * 0x9E3779B97F4A7C15 + b) & _MASK64) | (0x3FF << 52)
                else:
                    result = 0
                regs[write] = result
                out += _pack(*prefix, result, a, b, False, 0, False, 0,
                             False, False, 0)
            elif code == _BRANCH:
                taken = self._branch_outcome(template)
                if taken:
                    i += template.skip_count
                    target = body[i].prefix[0] if i < size else back_edge_pc
                else:
                    target = 0
                out += _pack(*prefix, 0, regs[read0], regs[read1], False, 0,
                             False, 0, taken, taken, target)
            elif code == _CALL:
                leaf = self._program.leaves[template.callee]
                out += _transfer_row(prefix[0], _CALL_CODE, leaf.entry_pc)
                self._run_body(arg, 0)
                out += _transfer_row(leaf.ret.pc, _RETURN_CODE, prefix[0] + 4)
            elif code == _LOAD:
                self._execute_load(body[i - 1])
            else:
                self._execute_store(body[i - 1])

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

    def _emit_branch(self, op: _Op, taken: bool, target: int) -> None:
        regs = self._regs
        self._out += _pack(*op.prefix, 0, regs[op.read0], regs[op.read1],
                           False, 0, False, 0,
                           taken, taken, target if taken else 0)

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

    def _execute_load(self, op: _Op) -> None:
        template = op.template
        regs = self._regs
        a, b = regs[op.read0], regs[op.read1]
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
        regs[op.write] = result
        self._out += _pack(*op.prefix, result, a, b, True, addr, True,
                           value, False, False, 0)

    def _execute_store(self, op: _Op) -> None:
        regs = self._regs
        a, value = regs[op.read0], regs[op.read1]
        addr = self._effective_address(op.template)
        self._memory.write(addr, value)
        self._out += _pack(*op.prefix, 0, a, value, True, addr, True,
                           value, False, False, 0)

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
) -> CompiledTrace:
    """Build a program from ``params``/``seed`` and emulate ``length`` insts."""
    program = build_program(params, seed)
    array = Emulator(program, seed).run(length)
    return CompiledTrace(name, benchmark_class, seed, array)
