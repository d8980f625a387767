"""Workload characterization and its validation.

:class:`TraceStats` summarizes the trace properties the paper's
techniques exploit — instruction mix, value-width distribution, address
upper-bit locality, and branch-target displacement locality.  The
benchmark classes only stand in for the paper's suites if these emergent
statistics stay inside the bands the evaluation depends on (value
widths, memory intensity, branch behaviour).  This module encodes those
bands and checks generated traces against them — used by the test suite
and available to users tuning their own workload parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cpu.predecode import (
    UPPER_ONES,
    UPPER_SHIFT,
    low_width,
    preceding_store_match,
)
from repro.isa.compiled import (
    IS_CONTROL,
    IS_INTDP,
    IS_MEMORY,
    OP_CODE,
    OPCLASS_LIST,
    CompiledTrace,
)
from repro.isa.opcodes import OpClass
from repro.isa.values import UpperBitsEncoding
from repro.workloads.parameters import BenchmarkClass

Band = Tuple[float, float]


def _frac(n: int, d: int) -> float:
    return n / d if d else 0.0


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


@dataclass
class TraceStats:
    """Summary statistics of a trace.

    All fractions are over the relevant instruction subset (e.g.
    ``low_width_result_fraction`` is over register-writing integer-datapath
    instructions), and 0.0 when that subset is empty.
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
    def from_trace(cls, trace: CompiledTrace) -> "TraceStats":
        """The statistics of ``trace``, computed over its columns."""
        rows = trace.array
        total = len(rows)
        codes = rows["op"]
        op_counts = np.bincount(codes, minlength=len(OPCLASS_LIST)).tolist()
        taken = rows["taken"]
        pc, target = rows["pc"], rows["target"]
        mem_addr, mem_value = rows["mem_addr"], rows["mem_value"]

        # Integer datapath: register-writing results and every source
        # value read (``nvals`` of them; padding values are not read).
        intdp = IS_INTDP[codes]
        nvals = rows["nvals"]
        writes = intdp & (rows["dst"] >= 0)
        reads0 = intdp & (nvals >= 1)
        reads1 = intdp & (nvals >= 2)
        low0 = low_width(rows["sval0"])
        low1 = low_width(rows["sval1"])

        # Memory: the PAM upper-bits match and the L1D encoding of every
        # value that carries one (Section 3.6).
        memory = IS_MEMORY[codes]
        is_store = codes == OP_CODE[OpClass.STORE]
        encoded = memory & rows["has_mem_value"]
        upper = mem_value >> UPPER_SHIFT
        encoding = np.select(
            [upper == 0, upper == UPPER_ONES,
             upper == (mem_addr >> UPPER_SHIFT)],
            [UpperBitsEncoding.ALL_ZEROS, UpperBitsEncoding.ALL_ONES,
             UpperBitsEncoding.SAME_AS_ADDRESS],
            UpperBitsEncoding.LITERAL,
        )
        enc_counts = np.bincount(encoding[encoded],
                                 minlength=len(UpperBitsEncoding)).tolist()
        encoded_total = _count(encoded)

        branches = codes == OP_CODE[OpClass.BRANCH]
        transfers = IS_CONTROL[codes] & taken & rows["has_target"]
        near = (target >> UPPER_SHIFT) == (pc >> UPPER_SHIFT)

        return cls(
            count=total,
            op_mix={
                op: _frac(op_counts[OP_CODE[op]], total)
                for op in sorted(OPCLASS_LIST, key=lambda op: op.value)
                if op_counts[OP_CODE[op]]
            },
            low_width_result_fraction=_frac(
                _count(writes & low_width(rows["result"])), _count(writes)
            ),
            low_width_operand_fraction=_frac(
                _count(reads0 & low0) + _count(reads1 & low1),
                _count(reads0) + _count(reads1),
            ),
            branch_fraction=_frac(_count(branches), total),
            taken_fraction=_frac(_count(branches & taken), _count(branches)),
            memory_fraction=_frac(_count(memory), total),
            dcache_encoding_mix={
                enc: _frac(enc_counts[enc], encoded_total)
                for enc in UpperBitsEncoding if enc_counts[enc]
            },
            address_upper_match_fraction=_frac(
                _count(memory & preceding_store_match(is_store, mem_addr)),
                _count(memory),
            ),
            near_target_fraction=_frac(_count(transfers & near),
                                       _count(transfers)),
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


@dataclass(frozen=True)
class ClassExpectations:
    """Statistic bands one benchmark class must stay inside."""

    low_width_results: Band
    memory_fraction: Band
    branch_fraction: Band
    near_targets: Band = (0.80, 1.0)

    def check(self, stats: TraceStats) -> List[str]:
        """Violations (empty when the trace fits the class)."""
        violations = []

        def verify(label: str, value: float, band: Band) -> None:
            low, high = band
            if not low <= value <= high:
                violations.append(
                    f"{label} = {value:.3f} outside [{low:.2f}, {high:.2f}]"
                )

        verify("low_width_results", stats.low_width_result_fraction,
               self.low_width_results)
        verify("memory_fraction", stats.memory_fraction, self.memory_fraction)
        verify("branch_fraction", stats.branch_fraction, self.branch_fraction)
        verify("near_targets", stats.near_target_fraction, self.near_targets)
        return violations


#: Expected statistic bands per class — wide enough for seed variance,
#: tight enough to catch regressions in the generator.
CLASS_EXPECTATIONS: Dict[BenchmarkClass, ClassExpectations] = {
    BenchmarkClass.SPECINT: ClassExpectations(
        low_width_results=(0.35, 0.85),
        memory_fraction=(0.15, 0.50),
        branch_fraction=(0.05, 0.30),
    ),
    BenchmarkClass.SPECFP: ClassExpectations(
        low_width_results=(0.08, 0.70),
        memory_fraction=(0.20, 0.55),
        branch_fraction=(0.02, 0.20),
    ),
    BenchmarkClass.MEDIABENCH: ClassExpectations(
        low_width_results=(0.45, 0.95),
        memory_fraction=(0.10, 0.45),
        branch_fraction=(0.02, 0.25),
    ),
    BenchmarkClass.MIBENCH: ClassExpectations(
        low_width_results=(0.50, 0.95),
        memory_fraction=(0.10, 0.45),
        branch_fraction=(0.03, 0.30),
    ),
    BenchmarkClass.POINTER: ClassExpectations(
        low_width_results=(0.15, 0.65),
        memory_fraction=(0.18, 0.55),
        branch_fraction=(0.05, 0.35),
    ),
    BenchmarkClass.BIO: ClassExpectations(
        low_width_results=(0.45, 0.90),
        memory_fraction=(0.12, 0.50),
        branch_fraction=(0.04, 0.32),
    ),
}


def validate_trace(
    trace: CompiledTrace,
    expectations: Optional[ClassExpectations] = None,
) -> List[str]:
    """Check a trace against its class's bands; returns violations."""
    if expectations is None:
        try:
            klass = BenchmarkClass(trace.benchmark_class)
        except ValueError:
            raise ValueError(
                f"trace class {trace.benchmark_class!r} is not a known suite; "
                f"pass expectations explicitly"
            )
        expectations = CLASS_EXPECTATIONS[klass]
    return expectations.check(TraceStats.from_trace(trace))


def validate_suite(traces: List[CompiledTrace]) -> Dict[str, List[str]]:
    """Validate many traces; returns {trace name: violations} (non-empty only).

    Trace names are not guaranteed unique: users can generate the same
    benchmark twice with different parameters.  Repeated names are
    disambiguated as ``name#2``, ``name#3``, … (in input order) so a
    later duplicate never silently overwrites an earlier trace's
    violations, and each duplicate's report notes the name clash.
    """
    report: Dict[str, List[str]] = {}
    occurrences: Dict[str, int] = {}
    for trace in traces:
        count = occurrences.get(trace.name, 0) + 1
        occurrences[trace.name] = count
        violations = validate_trace(trace)
        if not violations:
            continue
        key = trace.name if count == 1 else f"{trace.name}#{count}"
        if count > 1:
            violations = violations + [
                f"duplicate trace name {trace.name!r} (occurrence {count})"
            ]
        report[key] = violations
    return report
