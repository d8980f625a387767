"""Fluent builder for hand-written traces.

Microbenchmarks and tests need small, precisely controlled instruction
streams; writing trace rows by hand is verbose and error prone (PCs,
srcs/values pairing, branch targets).  The builder assigns sequential
PCs, tracks register values so ``src_values`` always match the
dataflow, builds each row with :func:`~repro.isa.compiled.trace_row`,
and checks branch-target consistency.

Example::

    trace = (TraceBuilder("microbench")
             .alu(dst=1, result=5)
             .alu(dst=2, result=7, srcs=(1,))
             .load(dst=3, addr=0x2AAA_0000_0000, value=42, srcs=(2,))
             .branch(taken=False)
             .build())
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa.compiled import IS_CONTROL, CompiledTrace, compile_trace, trace_row
from repro.isa.opcodes import OpClass
from repro.isa.values import to_unsigned

DEFAULT_PC = 0x40_0000


class TraceBuilder:
    """Accumulates trace rows with consistent PCs and dataflow."""

    def __init__(self, name: str = "built", start_pc: int = DEFAULT_PC):
        if start_pc % 4:
            raise ValueError(f"start pc must be 4-byte aligned, got {start_pc:#x}")
        self.name = name
        self._pc = start_pc
        self._rows: List[tuple] = []
        self._regs: Dict[int, int] = {}

    # ------------------------------------------------------------------ #

    def _advance(self, op: OpClass, srcs: Tuple[int, ...] = (),
                 dst: Optional[int] = None, result: int = 0,
                 mem_addr: Optional[int] = None,
                 mem_value: Optional[int] = None, taken: bool = False,
                 target: Optional[int] = None) -> "TraceBuilder":
        """Append one row at the current PC, reading ``srcs``' values
        from the tracked registers."""
        values = tuple(self._regs.get(reg, 0) for reg in srcs)
        self._rows.append(trace_row(self._pc, op, srcs, dst, result, values,
                                    mem_addr, mem_value, taken, target))
        self._pc = target if op.is_control and taken else self._pc + 4
        if dst is not None:
            self._regs[dst] = result
        return self

    @property
    def next_pc(self) -> int:
        """The PC the next appended instruction will get."""
        return self._pc

    # ------------------------------------------------------------------ #

    def alu(self, dst: int, result: int, srcs: Tuple[int, ...] = (),
            op: OpClass = OpClass.IALU) -> "TraceBuilder":
        """An integer ALU instruction producing ``result``."""
        if not op.is_integer_datapath or op.is_memory:
            raise ValueError(f"{op} is not an ALU opcode")
        return self._advance(op, srcs, dst, to_unsigned(result))

    def fp(self, dst: int, srcs: Tuple[int, ...] = (),
           op: OpClass = OpClass.FADD, result: int = 0) -> "TraceBuilder":
        """A floating point instruction (bit pattern is opaque)."""
        if not op.is_fp:
            raise ValueError(f"{op} is not a floating point opcode")
        return self._advance(op, srcs, dst, to_unsigned(result))

    def load(self, dst: int, addr: int, value: int,
             srcs: Tuple[int, ...] = ()) -> "TraceBuilder":
        """A load of ``value`` from ``addr``."""
        value = to_unsigned(value)
        return self._advance(OpClass.LOAD, srcs, dst, value,
                             mem_addr=addr, mem_value=value)

    def store(self, addr: int, value: int,
              srcs: Tuple[int, ...] = ()) -> "TraceBuilder":
        """A store of ``value`` to ``addr``."""
        return self._advance(OpClass.STORE, srcs, mem_addr=addr,
                             mem_value=to_unsigned(value))

    def branch(self, taken: bool, target: Optional[int] = None,
               srcs: Tuple[int, ...] = ()) -> "TraceBuilder":
        """A conditional branch; taken branches need a 4-aligned target."""
        if taken:
            if target is None:
                raise ValueError("taken branches need a target")
            if target % 4:
                raise ValueError(f"target must be 4-byte aligned, got {target:#x}")
        return self._advance(OpClass.BRANCH, srcs, taken=taken,
                             target=target if taken else None)

    def jump(self, target: int) -> "TraceBuilder":
        return self._advance(OpClass.JUMP, taken=True, target=target)

    def call(self, target: int) -> "TraceBuilder":
        return self._advance(OpClass.CALL, taken=True, target=target)

    def ret(self, target: int) -> "TraceBuilder":
        return self._advance(OpClass.RETURN, taken=True, target=target)

    def repeat(self, times: int, body) -> "TraceBuilder":
        """Apply ``body(builder, iteration)`` ``times`` times."""
        if times < 0:
            raise ValueError(f"times must be non-negative, got {times}")
        for iteration in range(times):
            body(self, iteration)
        return self

    # ------------------------------------------------------------------ #

    def build(self, benchmark_class: str = "microbench") -> CompiledTrace:
        """Pack the rows into a trace, validating path continuity."""
        trace = compile_trace(self.name, self._rows, benchmark_class)
        rows = trace.array
        next_pc = np.where(IS_CONTROL[rows["op"]] & rows["taken"],
                           rows["target"], rows["pc"] + np.uint64(4))
        breaks = np.flatnonzero(next_pc[:-1] != rows["pc"][1:])
        if len(breaks):
            i = int(breaks[0])
            raise ValueError(
                f"committed path breaks between {int(rows['pc'][i]):#x} "
                f"(next {int(next_pc[i]):#x}) and {int(rows['pc'][i + 1]):#x}"
            )
        return trace
