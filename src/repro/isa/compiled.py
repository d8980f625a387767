"""Columnar (structure-of-arrays) trace representation.

The *compiled* form of a trace is one numpy structured array with one
:data:`TRACE_DTYPE` row per committed instruction.  It is the form the
emulator writes (rows packed with :data:`TRACE_ROW` into one buffer as
they are emitted) and the only
form the timing core replays: every loop-invariant per-instruction
property (op-class predicates, 16-bit significance classification, cache
line/page indices) is derived from it once, vectorized, and shared
across every configuration that replays the trace (see
:mod:`repro.cpu.predecode`).  Hand-built traces, lists of
:class:`~repro.isa.instruction.TraceInstruction` records, compile
through :func:`compile_trace` into the same row layout.

The compiled form is also the *transport* form: it round-trips through
``.npy`` + JSON-sidecar files (:func:`write_compiled` /
:func:`read_compiled`) and is memory-mapped back in, so worker processes
share one on-disk copy per workload instead of each re-running the
emulator or unpickling a private instruction list.

Compilation is strict: any trace the fixed-width columns cannot represent
exactly (more than two sources, values outside 64-bit range, register ids
outside int16) raises :class:`TraceCompileError`; the timing core only
replays compiled traces, so such a trace cannot be simulated.
:meth:`CompiledTrace.to_trace` reconstructs the instruction list exactly;
it is how a generated trace's lazy ``instructions`` view is built.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Dict, List, Optional

import numpy as np

from repro.isa.instruction import MAX_SOURCES, TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace

#: Bump on any change to the structured dtype or the sidecar layout so
#: stale on-disk compiled traces never load.  Version 2 added the
#: sidecar's ``crc32`` of the array bytes.
TRACE_SCHEMA_VERSION = 2

#: Op classes in enum-definition order; the ``op`` column stores indices
#: into this list.
OPCLASS_LIST: List[OpClass] = list(OpClass)

OP_CODE: Dict[OpClass, int] = {op: code for code, op in enumerate(OPCLASS_LIST)}

#: One row per committed instruction.  ``dst`` uses -1 for "no
#: destination"; optional fields pair a value column with a presence
#: flag so ``None`` survives the round trip exactly.
TRACE_DTYPE = np.dtype([
    ("pc", "<u8"),
    ("op", "<u1"),
    ("nsrcs", "<u1"),
    ("nvals", "<u1"),
    ("src0", "<i2"),
    ("src1", "<i2"),
    ("dst", "<i2"),
    ("result", "<u8"),
    ("sval0", "<u8"),
    ("sval1", "<u8"),
    ("has_mem_addr", "?"),
    ("mem_addr", "<u8"),
    ("has_mem_value", "?"),
    ("mem_value", "<u8"),
    ("taken", "?"),
    ("has_target", "?"),
    ("target", "<u8"),
])

#: One :data:`TRACE_DTYPE` row as packed bytes: the same fields, widths
#: and order, no padding.
TRACE_ROW = struct.Struct("<QBBBhhhQQQ?Q?Q??Q")
assert TRACE_ROW.size == TRACE_DTYPE.itemsize

_REG_MAX = (1 << 15) - 1


class TraceCompileError(ValueError):
    """The trace cannot be represented exactly in columnar form."""


class TraceReadError(ValueError):
    """An on-disk compiled trace is missing, corrupt, or incompatible."""


class CompiledTrace:
    """A trace as one numpy structured array plus identifying metadata.

    ``array`` may be an ordinary in-memory array or a read-only memory
    map of an on-disk entry; consumers never mutate it.  ``_predecoded``
    caches the config-independent decoded columns
    (:class:`repro.cpu.predecode.PreDecodedTrace`) so six configurations
    replaying the same workload decode it once.
    """

    __slots__ = ("name", "benchmark_class", "seed", "array", "_predecoded")

    def __init__(
        self,
        name: str,
        benchmark_class: str,
        seed: Optional[int],
        array: np.ndarray,
    ):
        self.name = name
        self.benchmark_class = benchmark_class
        self.seed = seed
        self.array = array
        self._predecoded = None

    def __len__(self) -> int:
        return len(self.array)

    @property
    def nbytes(self) -> int:
        """Size of the columnar array in bytes (the transport payload).

        For a memory-mapped entry this is the on-disk footprint shared by
        all workers, not per-process resident memory.
        """
        return int(self.array.nbytes)

    def to_trace(self) -> Trace:
        """Reconstruct the exact object-form :class:`Trace`."""
        instructions = [
            TraceInstruction(
                pc, OPCLASS_LIST[op], (src0, src1)[:nsrcs],
                None if dst < 0 else dst, result, (sval0, sval1)[:nvals],
                mem_addr if has_mem_addr else None,
                mem_value if has_mem_value else None,
                taken, target if has_target else None,
            )
            for (pc, op, nsrcs, nvals, src0, src1, dst, result, sval0, sval1,
                 has_mem_addr, mem_addr, has_mem_value, mem_value, taken,
                 has_target, target) in self.array.tolist()
        ]
        return Trace(
            name=self.name,
            instructions=instructions,
            benchmark_class=self.benchmark_class,
            seed=self.seed,
        )


def rows_to_array(rows: List[tuple]) -> np.ndarray:
    """One :data:`TRACE_DTYPE` array from row tuples in field order.

    Each row is packed with :data:`TRACE_ROW` straight into one buffer,
    which the array views: no per-field conversion runs in numpy.
    """
    size = TRACE_ROW.size
    packed = bytearray(len(rows) * size)
    pack_into = TRACE_ROW.pack_into
    try:
        for offset, row in zip(range(0, len(packed), size), rows):
            pack_into(packed, offset, *row)
    except struct.error as exc:
        raise out_of_range(exc) from exc
    return np.frombuffer(packed, dtype=TRACE_DTYPE)


def out_of_range(exc: struct.error) -> TraceCompileError:
    """The error for a row value :data:`TRACE_ROW` cannot pack."""
    return TraceCompileError(
        f"a value is outside the unsigned 64-bit range: {exc}"
    )


def compile_trace(trace: Trace) -> CompiledTrace:
    """Compile ``trace`` into columnar form (strict; see module docstring)."""
    rows = []
    for inst in trace.instructions:
        pc, srcs, values, dst = inst.pc, inst.srcs, inst.src_values, inst.dst
        if len(srcs) > MAX_SOURCES:
            raise TraceCompileError(
                f"{len(srcs)} sources at pc={pc:#x} exceed the "
                f"{MAX_SOURCES}-column layout"
            )
        # numpy's int16 cast takes negative ids silently: check both bounds.
        registers = srcs if dst is None else (*srcs, dst)
        if not all(0 <= reg <= _REG_MAX for reg in registers):
            raise TraceCompileError(
                f"register ids {registers} at pc={pc:#x} are not all within int16"
            )
        # Packing refuses a negative too, but without naming the pc;
        # values above 2**64 - 1 raise in rows_to_array.
        if min(pc, inst.result, *values, inst.mem_addr or 0,
               inst.mem_value or 0, inst.target or 0) < 0:
            raise TraceCompileError(
                f"a negative value at pc={pc:#x} is outside the unsigned 64-bit range"
            )
        rows.append((
            pc, OP_CODE[inst.op], len(srcs), len(values), *(srcs + (0, 0))[:2],
            -1 if dst is None else dst, inst.result, *(values + (0, 0))[:2],
            inst.mem_addr is not None, inst.mem_addr or 0,
            inst.mem_value is not None, inst.mem_value or 0,
            inst.taken, inst.target is not None, inst.target or 0,
        ))
    return CompiledTrace(trace.name, trace.benchmark_class, trace.seed,
                         rows_to_array(rows))


# ---------------------------------------------------------------------- #
# On-disk form: <key>.npy (the array, memory-mappable) + <key>.json
# (metadata).  Atomicity and eviction policy belong to the trace store
# (:class:`repro.experiments.cache.TraceStore`); these two functions are
# the raw serialization shared by the store and by pool workers.

def meta_path_for(npy_path: os.PathLike) -> str:
    """The JSON sidecar path belonging to a ``.npy`` entry."""
    path = os.fspath(npy_path)
    return (path[:-4] if path.endswith(".npy") else path) + ".json"


def _crc32(array: np.ndarray) -> int:
    """CRC-32 of a contiguous array's row bytes."""
    return zlib.crc32(array.view(np.uint8))


def write_compiled(compiled: CompiledTrace, npy_path, meta_path=None) -> None:
    """Serialize ``compiled`` (non-atomic; callers rename into place)."""
    if meta_path is None:
        meta_path = meta_path_for(npy_path)
    array = np.ascontiguousarray(compiled.array)
    with open(npy_path, "wb") as stream:
        np.save(stream, array)
    meta = {
        "schema": TRACE_SCHEMA_VERSION,
        "name": compiled.name,
        "benchmark_class": compiled.benchmark_class,
        "seed": compiled.seed,
        "length": len(array),
        "crc32": _crc32(array),
    }
    with open(meta_path, "w", encoding="utf-8") as stream:
        json.dump(meta, stream, sort_keys=True)
        stream.write("\n")


def read_compiled(npy_path, meta_path=None, mmap: bool = True) -> CompiledTrace:
    """Load an on-disk compiled trace, memory-mapping the array.

    Raises :class:`TraceReadError` on any damage or incompatibility —
    missing files, bad magic, wrong dtype, schema drift, metadata that
    disagrees with the array, or array bytes whose CRC-32 differs from
    the one recorded at write time — so callers can evict and regenerate
    instead of simulating garbage.
    """
    if meta_path is None:
        meta_path = meta_path_for(npy_path)
    try:
        with open(meta_path, "r", encoding="utf-8") as stream:
            meta = json.load(stream)
    except (OSError, ValueError) as exc:
        raise TraceReadError(f"unreadable trace metadata {meta_path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("schema") != TRACE_SCHEMA_VERSION:
        raise TraceReadError(
            f"trace metadata {meta_path} has schema "
            f"{meta.get('schema') if isinstance(meta, dict) else meta!r}, "
            f"expected {TRACE_SCHEMA_VERSION}"
        )
    name = meta.get("name")
    benchmark_class = meta.get("benchmark_class")
    seed = meta.get("seed")
    length = meta.get("length")
    crc = meta.get("crc32")
    if not isinstance(name, str) or not isinstance(benchmark_class, str) \
            or not isinstance(length, int) or not isinstance(crc, int) \
            or not (seed is None or isinstance(seed, int)):
        raise TraceReadError(f"trace metadata {meta_path} is malformed: {meta}")
    try:
        array = np.load(npy_path, mmap_mode="r" if mmap else None,
                        allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise TraceReadError(f"unreadable trace array {npy_path}: {exc}") from exc
    if not isinstance(array, np.ndarray) or array.ndim != 1 \
            or array.dtype != TRACE_DTYPE:
        raise TraceReadError(
            f"trace array {npy_path} has wrong shape/dtype "
            f"({getattr(array, 'dtype', None)})"
        )
    if len(array) != length:
        raise TraceReadError(
            f"trace array {npy_path} holds {len(array)} rows, metadata says {length}"
        )
    if _crc32(array) != crc:
        raise TraceReadError(f"trace array {npy_path} fails its CRC-32 check")
    return CompiledTrace(
        name=name, benchmark_class=benchmark_class, seed=seed, array=array
    )
