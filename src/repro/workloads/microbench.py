"""Hand-built microbenchmarks targeting individual herding mechanisms.

Each kernel is a deterministic looped trace (via
:class:`~repro.isa.builder.TraceBuilder`) crafted to trigger exactly one
Thermal Herding mechanism, so its stalls and herding counters can be
validated in isolation — the microarchitectural unit tests of the paper's
Section 3.  All kernels loop over fixed PCs so the width predictor, BTB,
and branch predictor see repeatable static instructions:

* ``narrow_alu``   — all-narrow arithmetic: maximal gating, no stalls.
* ``width_flip``   — a PC alternating narrow/wide results: width
  mispredictions and ALU re-executions.
* ``wide_operands``— narrow results from wide operands: register-read
  group stalls (unsafe at the RF).
* ``pointer_chase``— serial dependent loads at one PC.
* ``stack_burst``  — stack stores/loads with shared upper bits: PAM herds.
* ``far_branches`` — calls into a far code region: BTB memoization stalls.
* ``wide_loads``   — one load PC trained narrow, then fed wide literals:
  D-cache width stalls.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.isa.builder import TraceBuilder
from repro.isa.compiled import CompiledTrace

HEAP = 0x2AAA_0000_0000
STACK = 0x7FFF_FFFF_8000
FAR_CODE = 0x7F00_0000_0000
WIDE = 0x0123_4567_0000_0000


def _loop(builder: TraceBuilder, iterations: int, body) -> TraceBuilder:
    """Run ``body(builder, i)`` at fixed PCs with a back-edge branch."""
    start = builder.next_pc
    for i in range(iterations):
        body(builder, i)
        last = i == iterations - 1
        builder.branch(taken=not last, target=None if last else start, srcs=(0,))
    return builder


def narrow_alu(iterations: int = 64) -> CompiledTrace:
    """Dependent narrow adds: everything stays on the top die."""
    builder = TraceBuilder("narrow_alu")

    def body(b: TraceBuilder, i: int) -> None:
        b.alu(1, (i + 3) & 0xFFF, srcs=(1,))
        b.alu(2, 7)

    return _loop(builder, iterations, body).build()


def width_flip(iterations: int = 64) -> CompiledTrace:
    """One loop PC alternates narrow and wide results each iteration.

    The 2-bit width predictor can never settle, so this kernel maximizes
    width mispredictions (both safe and unsafe).
    """
    builder = TraceBuilder("width_flip")

    def body(b: TraceBuilder, i: int) -> None:
        wide = i % 2 == 1
        b.alu(1, WIDE | i if wide else i + 1)
        b.alu(2, 5, srcs=(2,))

    return _loop(builder, iterations, body).build()


def wide_operands(iterations: int = 64) -> CompiledTrace:
    """Narrow results computed FROM wide operands.

    The consumer's result is narrow (training the predictor low) but its
    register operand is wide, so low predictions are unsafe at the
    register file (Section 3.1's group stall).  Spacer instructions push
    the consumer past the bypass window so the operand really comes from
    the register file.
    """
    builder = TraceBuilder("wide_operands")

    def body(b: TraceBuilder, i: int) -> None:
        # The producer alternates narrow/wide at a fixed PC, keeping the
        # predictor unsettled; spacers push the consumer out of the
        # bypass window so the wide operand is read from the RF.
        b.alu(5, (WIDE | (i + 1)) if i % 2 else 3)
        for k in range(12):
            b.alu(2, (i + k) & 0xFF, srcs=(2,))
        b.alu(1, 3, srcs=(5,))

    return _loop(builder, iterations, body).build()


def pointer_chase(iterations: int = 64, stride_lines: int = 9) -> CompiledTrace:
    """Serial dependent loads at one PC walking a strided pointer ring."""
    builder = TraceBuilder("pointer_chase")
    addr = HEAP

    def body(b: TraceBuilder, i: int) -> None:
        nonlocal addr
        next_addr = HEAP + ((i + 1) * stride_lines * 64) % (1 << 16)
        b.load(1, addr=addr, value=next_addr, srcs=(1,))
        addr = next_addr

    return _loop(builder, iterations, body).build()


def stack_burst(iterations: int = 64) -> CompiledTrace:
    """Bursts of stack traffic: PAM herds almost every broadcast."""
    builder = TraceBuilder("stack_burst")

    def body(b: TraceBuilder, i: int) -> None:
        slot = STACK + (i % 16) * 8
        b.store(addr=slot, value=i & 0x7FF, srcs=(1, 2))
        b.load(3, addr=slot, value=i & 0x7FF, srcs=(1,))

    return _loop(builder, iterations, body).build()


def far_branches(iterations: int = 48) -> CompiledTrace:
    """Calls into a far code region: the BTB memoization bit misses."""
    builder = TraceBuilder("far_branches")
    start = builder.next_pc
    for i in range(iterations):
        builder.call(FAR_CODE)
        builder.alu(1, i & 0xFF)            # leaf body at FAR_CODE
        builder.ret(start + 4)
        builder.alu(2, 5)                   # back at start + 4
        last = i == iterations - 1
        builder.branch(taken=not last, target=None if last else start, srcs=(2,))
    return builder.build()


def wide_loads(iterations: int = 64) -> CompiledTrace:
    """One load PC trained narrow for half the run, then wide literals.

    The second half's loads are unsafe under the (trained-low) width
    prediction, and their values are not trivially encodable, so each
    pays the D-cache width-misprediction stall (Section 3.6).
    """
    builder = TraceBuilder("wide_loads")

    def body(b: TraceBuilder, i: int) -> None:
        narrow_phase = i < iterations // 2
        value = (i & 0xFF) + 1 if narrow_phase else (WIDE | (i + 1))
        # Fresh lines in the wide phase: their encoding bits are computed
        # from the wide values (LITERAL), not inherited from the narrow
        # phase's lines.
        slot = (i % 8) if narrow_phase else (8 + i % 8)
        b.load(1, addr=HEAP + slot * 64, value=value, srcs=(2,))
        b.alu(2, 1, srcs=(2,))

    return _loop(builder, iterations, body).build()


#: All kernels by name.
KERNELS: Dict[str, Callable[[], CompiledTrace]] = {
    "narrow_alu": narrow_alu,
    "width_flip": width_flip,
    "wide_operands": wide_operands,
    "pointer_chase": pointer_chase,
    "stack_burst": stack_burst,
    "far_branches": far_branches,
    "wide_loads": wide_loads,
}


def all_kernels() -> List[CompiledTrace]:
    """Instantiate every kernel at its default size."""
    return [build() for build in KERNELS.values()]
