"""Columnar (structure-of-arrays) trace representation.

A :class:`~repro.isa.trace.Trace` is a list of frozen dataclass records;
replaying one under six configurations re-pays Python attribute access,
``cached_property`` machinery, and big-int width arithmetic per
instruction per configuration.  :func:`compile_trace` converts the trace
into one numpy structured array — the *compiled* form — from which all
loop-invariant per-instruction properties (op-class predicates, 16-bit
significance classification, cache line/page indices) are derived once,
vectorized, and shared across every configuration that replays the
trace (see :mod:`repro.cpu.predecode`).

The compiled form is also the *transport* form: it round-trips through
``.npy`` + JSON-sidecar files (:func:`write_compiled` /
:func:`read_compiled`) and is memory-mapped back in, so worker processes
share one on-disk copy per workload instead of each re-running the
emulator or unpickling a private instruction list.

Compilation is strict: any trace the fixed-width columns cannot represent
exactly (more than two sources, values outside 64-bit range, register ids
outside int16) raises :class:`TraceCompileError`; the timing core only
replays compiled traces, so such a trace cannot be simulated.
:meth:`CompiledTrace.to_trace` reconstructs the original instruction
list exactly, which the round-trip tests rely on.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

import numpy as np

from repro.isa.instruction import MAX_SOURCES, TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace

#: Bump on any change to the structured dtype or the sidecar layout so
#: stale on-disk compiled traces never load.
TRACE_SCHEMA_VERSION = 1

#: Op classes in enum-definition order; the ``op`` column stores indices
#: into this list.
OPCLASS_LIST: List[OpClass] = list(OpClass)

_OP_CODE: Dict[OpClass, int] = {op: code for code, op in enumerate(OPCLASS_LIST)}

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

_U64_MAX = (1 << 64) - 1
_REG_MAX = (1 << 15) - 1


class TraceCompileError(ValueError):
    """The trace cannot be represented exactly in columnar form."""


class TraceReadError(ValueError):
    """An on-disk compiled trace is missing, corrupt, or incompatible."""


def _check_u64(value: int, what: str, pc: int) -> int:
    if not 0 <= value <= _U64_MAX:
        raise TraceCompileError(
            f"{what}={value!r} at pc={pc:#x} is outside the unsigned 64-bit range"
        )
    return value


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
        rows = self.array
        instructions: List[TraceInstruction] = []
        for row in rows:
            nsrcs = int(row["nsrcs"])
            nvals = int(row["nvals"])
            srcs = (int(row["src0"]),)[:nsrcs] if nsrcs < 2 else (
                int(row["src0"]), int(row["src1"])
            )
            src_values = (int(row["sval0"]),)[:nvals] if nvals < 2 else (
                int(row["sval0"]), int(row["sval1"])
            )
            dst = int(row["dst"])
            instructions.append(TraceInstruction(
                pc=int(row["pc"]),
                op=OPCLASS_LIST[int(row["op"])],
                srcs=srcs,
                dst=None if dst < 0 else dst,
                result=int(row["result"]),
                src_values=src_values,
                mem_addr=int(row["mem_addr"]) if row["has_mem_addr"] else None,
                mem_value=int(row["mem_value"]) if row["has_mem_value"] else None,
                taken=bool(row["taken"]),
                target=int(row["target"]) if row["has_target"] else None,
            ))
        return Trace(
            name=self.name,
            instructions=instructions,
            benchmark_class=self.benchmark_class,
            seed=self.seed,
        )


def compile_trace(trace: Trace) -> CompiledTrace:
    """Compile ``trace`` into columnar form (strict; see module docstring)."""
    n = len(trace.instructions)
    arr = np.zeros(n, dtype=TRACE_DTYPE)
    pcs = [0] * n
    ops = [0] * n
    nsrcs_col = [0] * n
    nvals_col = [0] * n
    src0 = [0] * n
    src1 = [0] * n
    dsts = [-1] * n
    results = [0] * n
    sval0 = [0] * n
    sval1 = [0] * n
    has_ma = [False] * n
    mem_addrs = [0] * n
    has_mv = [False] * n
    mem_values = [0] * n
    takens = [False] * n
    has_tgt = [False] * n
    targets = [0] * n
    for i, inst in enumerate(trace.instructions):
        pc = inst.pc
        pcs[i] = _check_u64(pc, "pc", pc)
        ops[i] = _OP_CODE[inst.op]
        srcs = inst.srcs
        if len(srcs) > MAX_SOURCES:
            raise TraceCompileError(
                f"{len(srcs)} sources at pc={pc:#x} exceed the "
                f"{MAX_SOURCES}-column layout"
            )
        nsrcs_col[i] = len(srcs)
        for j, src in enumerate(srcs):
            if not 0 <= src <= _REG_MAX:
                raise TraceCompileError(
                    f"source register {src!r} at pc={pc:#x} is outside int16"
                )
            (src0 if j == 0 else src1)[i] = src
        values = inst.src_values
        nvals_col[i] = len(values)
        for j, value in enumerate(values):
            (sval0 if j == 0 else sval1)[i] = _check_u64(value, "src value", pc)
        if inst.dst is not None:
            if not 0 <= inst.dst <= _REG_MAX:
                raise TraceCompileError(
                    f"destination register {inst.dst!r} at pc={pc:#x} is outside int16"
                )
            dsts[i] = inst.dst
        results[i] = _check_u64(inst.result, "result", pc)
        if inst.mem_addr is not None:
            has_ma[i] = True
            mem_addrs[i] = _check_u64(inst.mem_addr, "mem_addr", pc)
        if inst.mem_value is not None:
            has_mv[i] = True
            mem_values[i] = _check_u64(inst.mem_value, "mem_value", pc)
        takens[i] = inst.taken
        if inst.target is not None:
            has_tgt[i] = True
            targets[i] = _check_u64(inst.target, "target", pc)
    arr["pc"] = pcs
    arr["op"] = ops
    arr["nsrcs"] = nsrcs_col
    arr["nvals"] = nvals_col
    arr["src0"] = src0
    arr["src1"] = src1
    arr["dst"] = dsts
    arr["result"] = results
    arr["sval0"] = sval0
    arr["sval1"] = sval1
    arr["has_mem_addr"] = has_ma
    arr["mem_addr"] = mem_addrs
    arr["has_mem_value"] = has_mv
    arr["mem_value"] = mem_values
    arr["taken"] = takens
    arr["has_target"] = has_tgt
    arr["target"] = targets
    return CompiledTrace(
        name=trace.name,
        benchmark_class=trace.benchmark_class,
        seed=trace.seed,
        array=arr,
    )


# ---------------------------------------------------------------------- #
# On-disk form: <key>.npy (the array, memory-mappable) + <key>.json
# (metadata).  Atomicity and eviction policy belong to the trace store
# (:class:`repro.experiments.cache.TraceStore`); these two functions are
# the raw serialization shared by the store and by pool workers.

def meta_path_for(npy_path: os.PathLike) -> str:
    """The JSON sidecar path belonging to a ``.npy`` entry."""
    path = os.fspath(npy_path)
    return (path[:-4] if path.endswith(".npy") else path) + ".json"


def write_compiled(compiled: CompiledTrace, npy_path, meta_path=None) -> None:
    """Serialize ``compiled`` (non-atomic; callers rename into place)."""
    if meta_path is None:
        meta_path = meta_path_for(npy_path)
    with open(npy_path, "wb") as stream:
        np.save(stream, np.ascontiguousarray(compiled.array))
    meta = {
        "schema": TRACE_SCHEMA_VERSION,
        "name": compiled.name,
        "benchmark_class": compiled.benchmark_class,
        "seed": compiled.seed,
        "length": len(compiled.array),
    }
    with open(meta_path, "w", encoding="utf-8") as stream:
        json.dump(meta, stream, sort_keys=True)
        stream.write("\n")


def read_compiled(npy_path, meta_path=None, mmap: bool = True) -> CompiledTrace:
    """Load an on-disk compiled trace, memory-mapping the array.

    Raises :class:`TraceReadError` on any damage or incompatibility —
    missing files, bad magic, wrong dtype, schema drift, or metadata
    that disagrees with the array — so callers can evict and regenerate
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
    if not isinstance(name, str) or not isinstance(benchmark_class, str) \
            or not isinstance(length, int) \
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
    return CompiledTrace(
        name=name, benchmark_class=benchmark_class, seed=seed, array=array
    )
