"""Trace container and summary statistics.

A :class:`Trace` is the unit of work a benchmark run consumes: an ordered
committed-instruction stream plus identifying metadata (name, benchmark
class, generator seed).  A generated trace carries the compiled columnar
array (:mod:`repro.isa.compiled`) from birth; its list of
:class:`~repro.isa.instruction.TraceInstruction` records is a lazy view
of that array, built only for callers that iterate objects.
:class:`TraceStats` summarizes the properties the paper's techniques
exploit — instruction mix, value-width distribution, address upper-bit
locality, and branch-target displacement locality — and is used both by
tests and by the width-locality example.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.isa.instruction import TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.values import (
    classify_upper_bits,
    is_low_width,
    upper_bits,
    UpperBitsEncoding,
)


class Trace:
    """An ordered committed-instruction stream with metadata.

    A trace holds its compiled columnar form, its instruction list, or
    both.  A generated trace is born compiled (:meth:`from_compiled`) and
    builds :class:`~repro.isa.instruction.TraceInstruction` objects only
    when a caller asks for :attr:`instructions`; a hand-built trace is
    born as a list and compiles on the first :meth:`compiled` call.
    """

    def __init__(
        self,
        name: str,
        instructions: Optional[List[TraceInstruction]],
        benchmark_class: str = "unknown",
        seed: Optional[int] = None,
    ):
        self.name = name
        self.benchmark_class = benchmark_class
        self.seed = seed
        self._instructions = instructions
        self._compiled = None

    @classmethod
    def from_compiled(cls, compiled) -> "Trace":
        """A trace whose instructions are views of ``compiled``'s rows."""
        trace = cls(compiled.name, None, compiled.benchmark_class, compiled.seed)
        trace._compiled = compiled
        return trace

    @property
    def instructions(self) -> List[TraceInstruction]:
        """The instruction objects, built from the rows on first use."""
        if self._instructions is None:
            self._instructions = self._compiled.to_trace().instructions
        return self._instructions

    def __len__(self) -> int:
        if self._instructions is None:
            return len(self._compiled)
        return len(self._instructions)

    def __iter__(self) -> Iterator[TraceInstruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def stats(self) -> "TraceStats":
        return TraceStats.from_instructions(self.instructions)

    def compiled(self):
        """The columnar form of this trace.

        Compilation is memoized on the instance: simulation calls this
        once per (trace, config) pair, but six configs share one trace
        object in a sweep.  Raises
        :class:`~repro.isa.compiled.TraceCompileError` if the fixed-width
        columns cannot represent the trace.
        """
        if self._compiled is None:
            from repro.isa.compiled import compile_trace

            self._compiled = compile_trace(self)
        return self._compiled


@dataclass
class TraceStats:
    """Summary statistics of a trace.

    All fractions are over the relevant instruction subset (e.g.
    ``low_width_result_fraction`` is over register-writing integer-datapath
    instructions).
    """

    count: int = 0
    op_mix: Dict[OpClass, float] = field(default_factory=dict)
    low_width_result_fraction: float = 0.0
    low_width_operand_fraction: float = 0.0
    branch_fraction: float = 0.0
    taken_fraction: float = 0.0
    memory_fraction: float = 0.0
    dcache_encoding_mix: Dict[UpperBitsEncoding, float] = field(default_factory=dict)
    address_upper_match_fraction: float = 0.0
    near_target_fraction: float = 0.0

    @classmethod
    def from_instructions(cls, instructions: Iterable[TraceInstruction]) -> "TraceStats":
        op_counts: Counter = Counter()
        enc_counts: Counter = Counter()
        total = 0
        int_writes = 0
        low_results = 0
        int_reads = 0
        low_operands = 0
        branches = 0
        taken = 0
        memory = 0
        addr_matches = 0
        near_targets = 0
        control_taken_total = 0
        last_store_upper: Optional[int] = None

        for inst in instructions:
            total += 1
            op_counts[inst.op] += 1
            if inst.op.is_memory:
                memory += 1
                assert inst.mem_addr is not None
                if last_store_upper is not None and upper_bits(inst.mem_addr) == last_store_upper:
                    addr_matches += 1
                if inst.op is OpClass.STORE:
                    last_store_upper = upper_bits(inst.mem_addr)
                if inst.mem_value is not None:
                    enc_counts[classify_upper_bits(inst.mem_value, inst.mem_addr)] += 1
            if inst.op is OpClass.BRANCH:
                branches += 1
                if inst.taken:
                    taken += 1
            if inst.op.is_control and inst.taken and inst.target is not None:
                control_taken_total += 1
                if upper_bits(inst.target) == upper_bits(inst.pc):
                    near_targets += 1
            if inst.op.is_integer_datapath:
                if inst.writes_register:
                    int_writes += 1
                    if inst.result_is_low_width:
                        low_results += 1
                for value in inst.src_values:
                    int_reads += 1
                    if is_low_width(value):
                        low_operands += 1

        def frac(n: int, d: int) -> float:
            return n / d if d else 0.0

        return cls(
            count=total,
            op_mix={op: frac(c, total) for op, c in sorted(op_counts.items(), key=lambda kv: kv[0].value)},
            low_width_result_fraction=frac(low_results, int_writes),
            low_width_operand_fraction=frac(low_operands, int_reads),
            branch_fraction=frac(branches, total),
            taken_fraction=frac(taken, branches),
            memory_fraction=frac(memory, total),
            dcache_encoding_mix={enc: frac(c, sum(enc_counts.values())) for enc, c in sorted(enc_counts.items())},
            address_upper_match_fraction=frac(addr_matches, memory),
            near_target_fraction=frac(near_targets, control_taken_total),
        )

    def format(self) -> str:
        """Render the statistics as an aligned text block."""
        lines = [f"instructions              {self.count}"]
        for op, fraction in self.op_mix.items():
            lines.append(f"  {op.value:<22s}  {fraction:6.1%}")
        lines.append(f"low-width results         {self.low_width_result_fraction:6.1%}")
        lines.append(f"low-width operands        {self.low_width_operand_fraction:6.1%}")
        lines.append(f"branch fraction           {self.branch_fraction:6.1%}")
        lines.append(f"taken fraction            {self.taken_fraction:6.1%}")
        lines.append(f"memory fraction           {self.memory_fraction:6.1%}")
        lines.append(f"addr upper-bits match     {self.address_upper_match_fraction:6.1%}")
        lines.append(f"near branch targets       {self.near_target_fraction:6.1%}")
        for enc, fraction in self.dcache_encoding_mix.items():
            lines.append(f"  L1D encoding {enc.name:<16s} {fraction:6.1%}")
        return "\n".join(lines)
