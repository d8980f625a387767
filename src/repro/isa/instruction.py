"""The trace instruction record.

A :class:`TraceInstruction` carries everything the timing model and the
Thermal Herding activity accounting need: program counter, opcode class,
register operands, the *architectural result value* (for width analysis),
and resolved memory/control-flow information.  Because the trace is the
committed instruction stream, branches carry their actual outcome and the
timing model charges misprediction penalties by comparing predictor output
against the recorded outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from repro.isa.opcodes import OpClass
from repro.isa.values import is_low_width, to_unsigned

#: Maximum architectural sources per instruction.  The columnar trace
#: form (:mod:`repro.isa.compiled`) allots exactly this many source
#: register/value columns; a trace exceeding it cannot be compiled, so
#: it cannot be simulated (:class:`~repro.isa.compiled.TraceCompileError`).
MAX_SOURCES = 2


@dataclass(frozen=True, init=False)
class TraceInstruction:
    """One committed dynamic instruction.

    Columnar representability: the compiled trace form stores register
    ids as int16, all values (``result``, ``src_values``, ``mem_addr``,
    ``mem_value``, ``target``, ``pc``) as unsigned 64-bit, and at most
    :data:`MAX_SOURCES` sources.  Instructions within those bounds round-trip
    exactly through :func:`repro.isa.compiled.compile_trace` /
    :meth:`repro.isa.compiled.CompiledTrace.to_trace`.  The emulator
    writes compiled rows directly; these records are a lazy view of them.

    Attributes
    ----------
    pc:
        Byte address of the instruction (4-byte aligned).
    op:
        Opcode class (see :class:`~repro.isa.opcodes.OpClass`).
    srcs:
        Architectural source register ids (0-2 of them).
    dst:
        Architectural destination register id, or ``None``.
    result:
        64-bit unsigned result value written to ``dst`` (0 if no dst).
        Width prediction and the partitioned datapath key off this.
    src_values:
        64-bit unsigned values of the source operands at execution,
        parallel to ``srcs``.  Used to decide whether the upper dies of
        the register file and functional units must be enabled.
    mem_addr:
        Effective address for loads and stores, else ``None``.
    mem_value:
        Value loaded or stored, else ``None``.
    taken:
        Resolved direction for control instructions (``True`` for
        unconditional transfers).
    target:
        Resolved next-PC for taken control instructions.
    """

    pc: int
    op: OpClass
    srcs: Tuple[int, ...] = field(default=())
    dst: Optional[int] = None
    result: int = 0
    src_values: Tuple[int, ...] = field(default=())
    mem_addr: Optional[int] = None
    mem_value: Optional[int] = None
    taken: bool = False
    target: Optional[int] = None

    def __init__(
        self,
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
    ) -> None:
        # Hand-written because a materialized trace builds one record per
        # committed instruction: the checks read the arguments, with no
        # __post_init__ call or attribute re-reads.  Fields are stored
        # with object.__setattr__, as the generated code does; writing
        # through __dict__ would lose the key-sharing instance dict and
        # double each record's memory.
        if op.is_memory and mem_addr is None:
            raise ValueError(f"{op} at pc={pc:#x} requires mem_addr")
        if op.is_control and taken and target is None:
            raise ValueError(f"taken {op} at pc={pc:#x} requires target")
        if len(src_values) not in (0, len(srcs)):
            raise ValueError(
                f"src_values length {len(src_values)} does not match "
                f"srcs length {len(srcs)}"
            )
        store = object.__setattr__
        store(self, "pc", pc)
        store(self, "op", op)
        store(self, "srcs", srcs)
        store(self, "dst", dst)
        store(self, "result", result)
        store(self, "src_values", src_values)
        store(self, "mem_addr", mem_addr)
        store(self, "mem_value", mem_value)
        store(self, "taken", taken)
        store(self, "target", target)

    @property
    def next_pc(self) -> int:
        """Architectural next PC (fall-through or taken target)."""
        if self.op.is_control and self.taken:
            assert self.target is not None
            return self.target
        return self.pc + 4

    @property
    def writes_register(self) -> bool:
        return self.dst is not None

    # The three width predicates are pure functions of immutable fields,
    # and every trace is replayed under several configurations, so they
    # are cached per instruction.  (cached_property stores directly into
    # __dict__, which frozen dataclasses permit.)

    @cached_property
    def result_is_low_width(self) -> bool:
        """True when the result fits the 16-bit low-width definition."""
        return is_low_width(self.result)

    @cached_property
    def operands_are_low_width(self) -> bool:
        """True when every source operand value is low width."""
        for v in self.src_values:
            if not is_low_width(v):
                return False
        return True

    @cached_property
    def is_low_width(self) -> bool:
        """The instruction's overall width class.

        An instruction is low width when both its source operands and its
        result are representable in 16 bits — the condition under which
        the lower three dies of the register file, functional unit, and
        bypass network can stay gated for it.
        """
        return self.result_is_low_width and self.operands_are_low_width

    def describe(self) -> str:
        """Human-readable one-line rendering, for debugging and examples."""
        parts = [f"{self.pc:#010x} {self.op.value:7s}"]
        if self.dst is not None:
            parts.append(f"r{self.dst} <-")
        if self.srcs:
            parts.append(", ".join(f"r{s}" for s in self.srcs))
        if self.mem_addr is not None:
            parts.append(f"[{to_unsigned(self.mem_addr):#x}]")
        if self.op.is_control:
            arrow = "T" if self.taken else "NT"
            tgt = f" -> {self.target:#x}" if self.taken and self.target else ""
            parts.append(f"({arrow}{tgt})")
        if self.dst is not None:
            parts.append(f"= {to_unsigned(self.result):#x}")
        return " ".join(parts)
