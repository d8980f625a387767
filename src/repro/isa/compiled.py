"""The trace representation: one numpy row per committed instruction.

A trace is one numpy structured array with one :data:`TRACE_DTYPE` row
per committed instruction, plus its name, benchmark class and generator
seed (:class:`CompiledTrace`).  The emulator writes it (rows packed with
:data:`TRACE_ROW` into one buffer as they are emitted); hand-built
traces build each row with :func:`trace_row`, which checks it, and pack
the rows with :func:`compile_trace`.  The timing core replays only this
form: every loop-invariant per-instruction property (op-class
predicates, 16-bit significance classification, cache line/page indices)
is derived from it once, vectorized, and shared across every
configuration that replays the trace (see :mod:`repro.cpu.predecode`).

The same array is the stored form: it round-trips through ``.npy`` +
JSON-sidecar files (:func:`write_compiled` / :func:`read_compiled`) and
is memory-mapped back in, so a process re-runs no emulator for a
workload the trace store already holds.  A trace's pickle, which takes
it to pool workers, carries the array and the metadata only.

Rows are strict: an instruction the fixed-width columns cannot represent
exactly (more than :data:`MAX_SOURCES` sources, values outside 64-bit
range, register ids outside int16) raises :class:`TraceCompileError`, so
such a trace cannot be simulated.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa.opcodes import OpClass

#: Bump on any change to the structured dtype or the sidecar layout so
#: stale on-disk compiled traces never load.  Version 2 added the
#: sidecar's ``crc32`` of the array bytes.
TRACE_SCHEMA_VERSION = 2

#: Op classes in enum-definition order; the ``op`` column stores indices
#: into this list.
OPCLASS_LIST: List[OpClass] = list(OpClass)

OP_CODE: Dict[OpClass, int] = {op: code for code, op in enumerate(OPCLASS_LIST)}

#: Op-class predicates indexed by ``op`` column codes, for vectorized
#: masks over a trace's rows.
IS_CONTROL = np.array([op.is_control for op in OPCLASS_LIST])
IS_MEMORY = np.array([op.is_memory for op in OPCLASS_LIST])
IS_INTDP = np.array([op.is_integer_datapath for op in OPCLASS_LIST])
IS_FP = np.array([op.is_fp for op in OPCLASS_LIST])

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

#: Maximum architectural sources per instruction: a row has exactly
#: this many source register/value columns.
MAX_SOURCES = 2

_REG_MAX = (1 << 15) - 1
_U64_MAX = (1 << 64) - 1


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

    def __reduce__(self):
        # The pre-decoded columns are twice the array's size, and a
        # worker builds them once per task anyway, so a pickle carries
        # only what defines the trace.
        return (CompiledTrace, (self.name, self.benchmark_class, self.seed,
                                np.asarray(self.array)))

    def __len__(self) -> int:
        return len(self.array)

    @property
    def nbytes(self) -> int:
        """Size of the columnar array in bytes (the bulk of its pickle).

        For a memory-mapped entry this is the on-disk footprint, not
        per-process resident memory.
        """
        return int(self.array.nbytes)

    def compiled(self) -> "CompiledTrace":
        """This trace.

        Kept only for ``benchmarks/e2e/jobs.py``, which calls
        ``suite.generate(...).compiled()``; ROADMAP item 6 removes it
        together with that call.
        """
        return self


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


def trace_row(
    pc: int,
    op: OpClass,
    srcs: Tuple[int, ...] = (),
    dst: Optional[int] = None,
    result: int = 0,
    src_values: Tuple[int, ...] = (),
    mem_addr: Optional[int] = None,
    mem_value: Optional[int] = None,
    taken: bool = False,
    target: Optional[int] = None,
) -> tuple:
    """One :data:`TRACE_DTYPE` row tuple for one committed instruction.

    ``srcs`` are architectural source register ids and ``src_values``
    their 64-bit unsigned values at execution (empty, or one per
    source); ``dst`` is the destination register id or ``None``, and
    ``result`` the value written to it.  Loads and stores carry
    ``mem_addr`` (and usually ``mem_value``); control ops carry their
    resolved direction ``taken`` and, when taken, the next PC
    ``target``.  Absent optional fields pack as a cleared presence flag
    and a zero value, and ``dst`` as -1.

    Raises :class:`ValueError` for an inconsistent instruction and
    :class:`TraceCompileError` for one the columns cannot hold exactly.
    """
    if op.is_memory and mem_addr is None:
        raise ValueError(f"{op} at pc={pc:#x} requires mem_addr")
    if op.is_control and taken and target is None:
        raise ValueError(f"taken {op} at pc={pc:#x} requires target")
    if len(src_values) not in (0, len(srcs)):
        raise ValueError(
            f"src_values length {len(src_values)} does not match "
            f"srcs length {len(srcs)}"
        )
    if len(srcs) > MAX_SOURCES:
        raise TraceCompileError(
            f"{len(srcs)} sources at pc={pc:#x} exceed the "
            f"{MAX_SOURCES}-column layout"
        )
    # The int16 columns would pack a negative id: check both bounds.
    registers = srcs if dst is None else (*srcs, dst)
    if not all(0 <= reg <= _REG_MAX for reg in registers):
        raise TraceCompileError(
            f"register ids {registers} at pc={pc:#x} are not all within int16"
        )
    values = (pc, result, *src_values, mem_addr or 0, mem_value or 0,
              target or 0)
    if min(values) < 0 or max(values) > _U64_MAX:
        raise TraceCompileError(
            f"a value at pc={pc:#x} is outside the unsigned 64-bit range"
        )
    return (
        pc, OP_CODE[op], len(srcs), len(src_values), *(srcs + (0, 0))[:2],
        -1 if dst is None else dst, result, *(src_values + (0, 0))[:2],
        mem_addr is not None, mem_addr or 0,
        mem_value is not None, mem_value or 0,
        taken, target is not None, target or 0,
    )


def compile_trace(name: str, rows: List[tuple],
                  benchmark_class: str = "unknown",
                  seed: Optional[int] = None) -> CompiledTrace:
    """Pack :func:`trace_row` tuples into a :class:`CompiledTrace`."""
    return CompiledTrace(name, benchmark_class, seed, rows_to_array(rows))


# ---------------------------------------------------------------------- #
# On-disk form: <key>.npy (the array, memory-mappable) + <key>.json
# (metadata).  Atomicity and eviction policy belong to the trace store
# (:class:`repro.experiments.cache.TraceStore`); these two functions are
# the raw serialization shared by the store and by ``repro trace``.

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
    except (OSError, ValueError, EOFError) as exc:
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
