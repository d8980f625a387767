"""The vectorized pre-decode columns against their loop references.

``PreDecodedTrace.prewarm_lines`` and ``PreDecodedTrace.writers`` are
computed with numpy sorts and counts.  The loops below are the
per-instruction dictionary walks they replaced, kept as the reference:
both must give equal results, in the same order, on generated traces of
every suite and on hand-built edge cases.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.cpu.predecode import predecode
from repro.isa.compiled import CompiledTrace, compile_trace, trace_row
from repro.isa.opcodes import OpClass
from repro.workloads.suite import generate


def reference_prewarm_lines(pre, line_bytes: int) -> List[int]:
    rows = pre._rows
    region_shift = 16
    access_counts: Dict[int, int] = {}
    region_accesses: Dict[int, int] = {}
    for pc, has_addr, mem_addr in zip(rows["pc"].tolist(),
                                      rows["has_mem_addr"].tolist(),
                                      rows["mem_addr"].tolist()):
        for addr in ((pc, mem_addr) if has_addr else (pc,)):
            tag = addr // line_bytes
            access_counts[tag] = access_counts.get(tag, 0) + 1
            region = addr >> region_shift
            region_accesses[region] = region_accesses.get(region, 0) + 1
    region_lines: Dict[int, int] = {}
    region_reused: Dict[int, int] = {}
    for tag, count in access_counts.items():
        region = (tag * line_bytes) >> region_shift
        region_lines[region] = region_lines.get(region, 0) + 1
        if count >= 2:
            region_reused[region] = region_reused.get(region, 0) + 1
    install = []
    for tag, count in access_counts.items():
        region = (tag * line_bytes) >> region_shift
        lines_here = region_lines[region]
        ratio = region_accesses[region] / lines_here
        reuse_fraction = region_reused.get(region, 0) / lines_here
        if count >= 2 or ratio >= 2.0 or reuse_fraction >= 0.025:
            install.append(tag)
    return install


def reference_writers(pre) -> Tuple[List[int], List[int]]:
    w0 = [-1] * pre.n
    w1 = [-1] * pre.n
    last_writer: Dict[int, int] = {}
    for i, (srcs, dst) in enumerate(zip(pre.srcs, pre.dsts)):
        if srcs:
            w0[i] = last_writer.get(srcs[0], -1)
            if len(srcs) == 2:
                w1[i] = last_writer.get(srcs[1], -1)
        if dst is not None:
            last_writer[dst] = i
    return w0, w1


def _edge_trace() -> CompiledTrace:
    """Line 0, repeated and self-reading registers, sparse addresses."""
    rows = [
        trace_row(pc=0x0, op=OpClass.IALU, srcs=(4,), dst=4,
                  result=1, src_values=(0,)),
        trace_row(pc=0x4, op=OpClass.LOAD, srcs=(4,), dst=4,
                  result=7, src_values=(1,), mem_addr=0x10_0000,
                  mem_value=7),
        trace_row(pc=0x8, op=OpClass.STORE, srcs=(4, 4),
                  src_values=(7, 7), mem_addr=0x7FFF_FFFF_0000,
                  mem_value=7),
        trace_row(pc=0xC, op=OpClass.IALU, srcs=(9, 4), dst=9,
                  result=3, src_values=(0, 7)),
        trace_row(pc=0x10, op=OpClass.LOAD, srcs=(9,), dst=1,
                  result=0, src_values=(3,), mem_addr=0x10_0040,
                  mem_value=0),
        trace_row(pc=0x14, op=OpClass.IALU, srcs=(1, 1), dst=1,
                  result=0, src_values=(0, 0)),
    ]
    return compile_trace("edge", rows * 3)


TRACES = [("edge", None)] + [
    (name, 3_000) for name in ("gzip", "mcf", "swim", "equake", "adpcm",
                        "susan", "yacr2", "blast")
]


def _pre(name, length):
    trace = _edge_trace() if length is None else generate(name, length)
    return predecode(trace)


@pytest.mark.parametrize("name,length", TRACES)
@pytest.mark.parametrize("line_bytes", [32, 64, 128])
def test_prewarm_lines_match_the_loop(name, length, line_bytes):
    pre = _pre(name, length)
    assert pre.prewarm_lines(line_bytes) == \
        reference_prewarm_lines(pre, line_bytes)


@pytest.mark.parametrize("name,length", TRACES)
def test_writers_match_the_loop(name, length):
    pre = _pre(name, length)
    assert pre.writers() == reference_writers(pre)
