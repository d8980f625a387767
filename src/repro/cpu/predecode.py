"""Vectorized pre-decode of a compiled trace for the timing loop.

Everything the scoreboard loop needs per instruction that does *not*
depend on dynamic timing state is computed here, once per trace, with
numpy reductions over the columnar form — op-class predicate columns,
the Section 3 16-bit significance classification (``is_low_width`` is
equivalent to ``v < 2**15 or v >= 2**64 - 2**15`` on the unsigned
representation), functional-unit latencies, and cache line/page indices.
A config sweep replays the same :class:`PreDecodedTrace` under every
configuration, so the per-instruction Python work in
:meth:`~repro.cpu.pipeline.TimingSimulator.run_compiled` shrinks to the
genuinely dynamic scoreboard updates.

The columns are materialized as plain Python lists (``ndarray.tolist``):
the consuming loop is scalar, and list indexing of native ints/bools is
substantially faster than per-element numpy scalar extraction.

Geometry-dependent columns (cache line and TLB page numbers) are cached
per ``(line_bytes, page_bytes)``; the L2 prewarm install sequence is
cached per ``line_bytes``; the static width-prediction profile is cached
once.  All cached derivations keep a fixed iteration order — dict
insertion order feeds LRU state and the width profile's dict order, both
of which the timing core's golden digests pin.

The batched wavefront split (:mod:`repro.cpu.wavefront`) adds a second
family of derived columns: dependency writer indices (which earlier
instruction produced each source operand), width-predictor index
streams, PAM/partial-value-encoding outcomes, and BTB target nearness —
everything the Thermal Herding techniques need per instruction that does
not depend on dynamic cycle counts.  Those columns are lazy (a config
sweep that never enables herding never pays for them) and, like the
geometry columns, are shared across every configuration replaying the
trace.  The frontend/memory walk caches at the bottom are populated by
:mod:`repro.cpu.wavefront` and keyed by the structural parameters that
actually influence each walk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa.compiled import (
    IS_CONTROL,
    IS_FP,
    IS_INTDP,
    IS_MEMORY,
    OPCLASS_LIST,
    CompiledTrace,
)
from repro.isa.opcodes import OpClass, OP_LATENCY

_LOW_POS = np.uint64(1 << 15)
_LOW_NEG = np.uint64((1 << 64) - (1 << 15))

_LATENCY = np.array([OP_LATENCY[op] for op in OPCLASS_LIST], dtype=np.int64)
#: Only FDIV occupies its unit for more than one cycle (see the issue stage).
_BUSY = np.array(
    [OP_LATENCY[op] if op is OpClass.FDIV else 1 for op in OPCLASS_LIST],
    dtype=np.int64,
)

LOAD_CODE = OPCLASS_LIST.index(OpClass.LOAD)
STORE_CODE = OPCLASS_LIST.index(OpClass.STORE)
RETURN_CODE = OPCLASS_LIST.index(OpClass.RETURN)
BRANCH_CODE = OPCLASS_LIST.index(OpClass.BRANCH)
CALL_CODE = OPCLASS_LIST.index(OpClass.CALL)

#: 16-bit word size: values and addresses split upper bits at this shift
#: (mirrors repro.isa.values.WORD_BITS for the vectorized columns below),
#: and the upper 48 bits of an all-ones value.
UPPER_SHIFT = np.uint64(16)
UPPER_ONES = np.uint64((1 << 48) - 1)
_ENC_ALIGN = np.uint64(~np.uint64(0x7))


def _last_writers(rows: np.ndarray) -> Tuple[List[int], List[int]]:
    """Per source slot, the index of the last earlier row whose ``dst``
    is that source register, or -1 (see :meth:`PreDecodedTrace.writers`).

    Vectorized as one sort: every register write and read becomes an
    event ordered by (register, row, reads before writes), so that an
    instruction reading its own destination sees the previous writer.
    A running maximum over the write events' sorted positions then finds
    each read's last writer; one from another register means none.
    """
    n = len(rows)
    index = np.arange(n, dtype=np.int64)
    dst = rows["dst"].astype(np.int64)
    nsrcs = rows["nsrcs"]
    writes = dst >= 0
    read0 = nsrcs >= 1
    read1 = nsrcs >= 2
    regs = np.concatenate((dst[writes], rows["src0"][read0].astype(np.int64),
                           rows["src1"][read1].astype(np.int64)))
    at = np.concatenate((index[writes], index[read0], index[read1]))
    is_write = np.zeros(len(regs), dtype=bool)
    is_write[:np.count_nonzero(writes)] = True
    order = np.lexsort((is_write, at, regs))
    sorted_write = is_write[order]
    rank = np.arange(len(order), dtype=np.int64)
    last = np.maximum.accumulate(np.where(sorted_write, rank, -1))
    found = last >= 0
    same_reg = found.copy()
    same_reg[found] = regs[order][last[found]] == regs[order][found]
    writer = np.where(same_reg, at[order][np.maximum(last, 0)], -1)
    per_event = np.empty(len(order), dtype=np.int64)
    per_event[order] = writer
    w0 = np.full(n, -1, dtype=np.int64)
    w1 = np.full(n, -1, dtype=np.int64)
    first = np.count_nonzero(writes)
    second = first + np.count_nonzero(read0)
    w0[read0] = per_event[first:second]
    w1[read1] = per_event[second:]
    return w0.tolist(), w1.tolist()


def low_width(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.isa.values.is_low_width` over u64 values."""
    return (values < _LOW_POS) | (values >= _LOW_NEG)


def preceding_store_match(is_store: np.ndarray,
                          mem_addr: np.ndarray) -> np.ndarray:
    """Per row: do ``mem_addr``'s upper 48 bits match those of the most
    recent *strictly earlier* store's?  False where no store precedes.

    This is the PAM comparison (Section 3.5): a store compares against
    the previous store before installing its own upper bits, so loads
    and stores alike use the strictly-preceding store.  Entries at
    non-memory rows are meaningless.
    """
    n = len(mem_addr)
    idx = np.arange(n, dtype=np.int64)
    last_incl = np.maximum.accumulate(np.where(is_store, idx, -1))
    prev = np.empty(n, dtype=np.int64)
    prev[:1] = -1
    prev[1:] = last_incl[:-1]
    uppers = mem_addr >> UPPER_SHIFT
    return (prev >= 0) & (uppers == uppers[np.maximum(prev, 0)])


class PreDecodedTrace:
    """Config-independent per-instruction columns as Python lists."""

    __slots__ = (
        "name", "benchmark_class", "n", "num_registers",
        "pcs", "codes",
        "is_memory", "is_intdp", "is_load", "is_store",
        "srcs", "svals_low", "dsts",
        "takens", "targets",
        "operands_low", "result_low", "actual_low", "latency", "busy",
        "_rows", "_pc_arr", "_mem_arr", "_geometry", "_prewarm", "_width_profile",
        # Wavefront-split additions: numpy views for the plan builder,
        # lazy dependency/herding columns, and the walk caches populated
        # by repro.cpu.wavefront.
        "np_cols", "_writers", "_pred_index", "_pam_herded", "_dc_cols",
        "frontend_walks", "memory_walks",
    )

    def __init__(self, compiled: CompiledTrace):
        rows = compiled.array
        self.name = compiled.name
        self.benchmark_class = compiled.benchmark_class
        self.n = len(rows)

        pc = np.ascontiguousarray(rows["pc"])
        codes = np.ascontiguousarray(rows["op"])
        result = np.ascontiguousarray(rows["result"])
        mem_value = np.ascontiguousarray(rows["mem_value"])
        has_mv = np.ascontiguousarray(rows["has_mem_value"])
        mem_addr = np.ascontiguousarray(rows["mem_addr"])
        nvals = np.ascontiguousarray(rows["nvals"])
        dst = np.ascontiguousarray(rows["dst"])

        self.pcs = pc.tolist()
        self.codes = codes.tolist()

        is_load = codes == LOAD_CODE
        is_store = codes == STORE_CODE
        is_intdp = IS_INTDP[codes]
        self.is_memory = IS_MEMORY[codes].tolist()
        self.is_intdp = is_intdp.tolist()
        self.is_load = is_load.tolist()
        self.is_store = is_store.tolist()

        nsrcs = rows["nsrcs"].tolist()
        src0 = rows["src0"].tolist()
        src1 = rows["src1"].tolist()
        self.srcs = [
            () if k == 0 else ((a,) if k == 1 else (a, b))
            for k, a, b in zip(nsrcs, src0, src1)
        ]
        self.dsts = [None if d < 0 else d for d in dst.tolist()]
        # One more than the largest register id any row names (padding
        # source ids are 0), so per-register state fits a list.
        self.num_registers = 1 + max(
            int(rows[column].max()) for column in ("src0", "src1", "dst")
        ) if self.n else 0
        self.takens = rows["taken"].tolist()
        has_target = rows["has_target"].tolist()
        self.targets = [
            t if h else None for h, t in zip(has_target, rows["target"].tolist())
        ]

        # Width classification (Section 3): operands, result, and the
        # per-op "actual" class the predictor trains on.  Padding src
        # values are 0 (low), so the nvals == 1 case reduces to low0.
        low0 = low_width(np.ascontiguousarray(rows["sval0"]))
        low1 = low_width(np.ascontiguousarray(rows["sval1"]))
        low_result = low_width(result)
        low_mv = low_width(mem_value)
        operands_low = (nvals == 0) | (low0 & low1)
        inst_low = low_result & operands_low
        self.operands_low = operands_low.tolist()
        result_low = (dst < 0) | low_result
        self.result_low = result_low.tolist()
        actual_low = np.where(
            is_load,
            np.where(has_mv, low_mv, low_result),
            np.where(is_store, np.where(has_mv, low_mv, True), inst_low),
        ) & is_intdp
        self.actual_low = actual_low.tolist()

        # Per-source-value width bits (the register file's lazily installed
        # memoization values), one per source value (``nvals`` of them).
        self.svals_low = [
            () if k == 0 else ((a,) if k == 1 else (a, b))
            for k, a, b in zip(nvals.tolist(), low0.tolist(), low1.tolist())
        ]

        self.latency = _LATENCY[codes].tolist()
        self.busy = _BUSY[codes].tolist()

        self._rows = rows
        self._pc_arr = pc
        self._mem_arr = mem_addr
        self._geometry: Dict[Tuple[int, int], tuple] = {}
        self._prewarm: Dict[int, List[int]] = {}
        self._width_profile: Optional[Dict[int, bool]] = None

        # Numpy views consumed by the wavefront plan builder
        # (:mod:`repro.cpu.wavefront`): everything it needs to derive
        # masks, first-occurrence positions, and windowed counts without
        # re-materializing arrays from the Python lists.
        self.np_cols: Dict[str, np.ndarray] = {
            "pc": pc,
            "codes": codes,
            "fetch_lines": pc // 64,
            "is_control": IS_CONTROL[codes],
            "is_memory": IS_MEMORY[codes],
            "is_intdp": is_intdp,
            "is_fp": IS_FP[codes],
            "is_load": is_load,
            "is_store": is_store,
            "is_cond": codes == BRANCH_CODE,
            "is_return": codes == RETURN_CODE,
            "is_call": codes == CALL_CODE,
            "taken": np.ascontiguousarray(rows["taken"]),
            "has_target": np.ascontiguousarray(rows["has_target"]),
            "target": np.ascontiguousarray(rows["target"]),
            "has_dst": dst >= 0,
            "has_srcs": np.ascontiguousarray(rows["nsrcs"]) > 0,
            "result_low": result_low,
            "mem_addr": mem_addr,
            "has_mem_addr": np.ascontiguousarray(rows["has_mem_addr"]),
            "mem_value_or_zero": np.where(has_mv, mem_value, np.uint64(0)),
        }

        # Lazy wavefront columns and walk caches (see the methods below).
        self._writers: Optional[Tuple[List[int], List[int]]] = None
        self._pred_index: Dict[int, List[int]] = {}
        self._pam_herded: Optional[np.ndarray] = None
        self._dc_cols: Dict[str, Tuple[List[bool], np.ndarray]] = {}
        self.frontend_walks: Dict[tuple, object] = {}
        self.memory_walks: Dict[tuple, object] = {}

    # ------------------------------------------------------------------ #

    def geometry(self, line_bytes: int, page_bytes: int) -> tuple:
        """Cache-line and TLB-page index columns for one cache geometry.

        Returns ``(pc_lines, pc_pages, mem_lines, mem_pages)`` as uint64
        arrays.  One ``line_bytes`` serves the L1I, the L1D and the L2
        alike (a configuration has a single ``line_bytes``), so a line
        number indexes all three and the next-line prefetch is
        ``line + 1``.
        """
        key = (line_bytes, page_bytes)
        cached = self._geometry.get(key)
        if cached is None:
            cached = (
                self._pc_arr // line_bytes,
                self._pc_arr // page_bytes,
                self._mem_arr // line_bytes,
                self._mem_arr // page_bytes,
            )
            self._geometry[key] = cached
        return cached

    def prewarm_lines(self, line_bytes: int) -> List[int]:
        """The L2 prewarm install sequence, as line numbers, in install
        order (insertion order feeds LRU state, so order is part of the
        contract).

        A finite trace window cannot warm a 4 MB L2 the way minutes of
        real execution do, so steady-state residency is approximated from
        reuse.  Per 64 KB region: hot regions (access/line ratio >= 2,
        e.g. stacks and hot sets) and revisited pools (>= 2.5% of the
        region's lines reused, e.g. a bounded pointer-chase structure)
        are fully resident, as is any line touched twice; single-pass
        streams and vast sparse footprints keep missing, exactly as they
        would in steady state.

        Computed with numpy over the access stream (each instruction's
        PC, then its data address if it has one): ``np.unique`` gives
        every line's access count and first access, and lines install in
        first-access order.
        """
        cached = self._prewarm.get(line_bytes)
        if cached is not None:
            return cached
        region_shift = np.uint64(16)
        has_addr = self.np_cols["has_mem_addr"]
        # Interleave each PC with its data address, then keep the real ones.
        stream = np.stack((self._pc_arr, self._mem_arr), axis=1).ravel()
        present = np.stack((np.ones(self.n, dtype=bool), has_addr), axis=1).ravel()
        stream = stream[present]
        lines, first, line_counts = np.unique(
            stream // line_bytes, return_index=True, return_counts=True
        )
        regions, region_accesses = np.unique(stream >> region_shift,
                                             return_counts=True)
        # Per line, its region's index among ``regions``.
        line_region = np.searchsorted(
            regions, (lines * np.uint64(line_bytes)) >> region_shift
        )
        region_lines = np.bincount(line_region, minlength=len(regions))
        region_reused = np.bincount(line_region, weights=line_counts >= 2,
                                    minlength=len(regions))
        lines_here = region_lines[line_region]
        resident = (
            (line_counts >= 2)
            | (region_accesses[line_region] / lines_here >= 2.0)
            | (region_reused[line_region] / lines_here >= 0.025)
        )
        order = np.argsort(first[resident])
        install = lines[resident][order].tolist()
        self._prewarm[line_bytes] = install
        return install

    def width_profile(self) -> Dict[int, bool]:
        """The static width predictor's profile: per static PC, True
        when a strict majority of its integer-datapath occurrences are
        low width (a tie means full width).  Other ops are not profiled.
        Keys appear in first-occurrence order."""
        profile = self._width_profile
        if profile is None:
            totals: Dict[int, int] = {}
            lows: Dict[int, int] = {}
            pcs = self.pcs
            actual_low = self.actual_low
            is_intdp = self.is_intdp
            for i in range(self.n):
                if not is_intdp[i]:
                    continue
                pc = pcs[i]
                totals[pc] = totals.get(pc, 0) + 1
                if actual_low[i]:
                    lows[pc] = lows.get(pc, 0) + 1
            profile = {pc: lows.get(pc, 0) * 2 > totals[pc] for pc in totals}
            self._width_profile = profile
        return profile

    # ------------------------------------------------------------------ #
    # Wavefront-split derived columns (lazy; see repro.cpu.wavefront).

    def writers(self) -> Tuple[List[int], List[int]]:
        """Last-writer instruction index per source-operand slot.

        ``writers()[k][i]`` is the index of the most recent instruction
        before ``i`` whose destination equals source ``k`` of ``i``, or
        -1 when no earlier instruction wrote it.  Together with the
        per-instruction completion cycles the loop records, these act as
        a per-register ready-cycle scoreboard: a register never written
        reads ready at cycle 0.
        """
        cached = self._writers
        if cached is None:
            cached = _last_writers(self._rows)
            self._writers = cached
        return cached

    def pred_index(self, mask: int) -> List[int]:
        """Width-predictor table indices ``(pc >> 2) & mask`` per instruction."""
        cached = self._pred_index.get(mask)
        if cached is None:
            cached = ((self._pc_arr >> np.uint64(2)).astype(np.int64) & mask).tolist()
            self._pred_index[mask] = cached
        return cached

    def pam_herded(self) -> List[bool]:
        """Per-memory-op PAM outcome (:func:`preceding_store_match`)."""
        cached = self._pam_herded
        if cached is None:
            cached = preceding_store_match(self.np_cols["is_store"],
                                           self._mem_arr).tolist()
            self._pam_herded = cached
        return cached

    def dc_columns(self, scheme_value: str) -> Tuple[List[bool], List[bool]]:
        """Partial-value-encoding outcomes of the L1D (Section 3.6).

        Returns ``(load_compressed, store_compressed)``: per index, is
        the encoding the access observes or installs compressible?  A
        value compresses under ``two_bit`` when its upper 48 bits are all
        zeros, all ones, or equal to its address's upper bits, and under
        ``one_bit`` only when they are all zeros.  Encodings are kept per
        8-byte double word: a store installs its value's encoding (fully
        vectorized); a load observes the installed encoding, or installs
        its own value's encoding if the double word holds none yet.
        Every load and store takes part, whatever its width prediction;
        the get-or-install evolution is replayed once per scheme in
        program order.
        """
        cached = self._dc_cols.get(scheme_value)
        if cached is None:
            cols = self.np_cols
            value = cols["mem_value_or_zero"]
            addr = cols["mem_addr"]
            upper = value >> UPPER_SHIFT
            if scheme_value == "two_bit":
                comp = (upper == 0) | (upper == UPPER_ONES) \
                    | (upper == (addr >> UPPER_SHIFT))
            else:  # one_bit ablation: only the all-zeros pattern compresses
                comp = upper == 0
            comp_list = comp.tolist()
            keys = (addr & _ENC_ALIGN).tolist()
            mem_idx = np.flatnonzero(cols["is_load"] | cols["is_store"]).tolist()
            is_store = self.is_store
            load_comp = comp_list[:]
            enc: Dict[int, bool] = {}
            enc_get = enc.get
            for i in mem_idx:
                key = keys[i]
                if is_store[i]:
                    enc[key] = comp_list[i]
                else:
                    e = enc_get(key)
                    if e is None:
                        enc[key] = comp_list[i]
                    else:
                        load_comp[i] = e
            cached = (load_comp, comp_list)
            self._dc_cols[scheme_value] = cached
        return cached


def predecode(compiled: CompiledTrace) -> PreDecodedTrace:
    """The (memoized) pre-decoded form of ``compiled``."""
    pre = compiled._predecoded
    if pre is None:
        pre = PreDecodedTrace(compiled)
        compiled._predecoded = pre
    return pre
