"""Synthetic workload generation.

The paper evaluates 106 application traces drawn from SPECint2000,
SPECfp2000, MediaBench, MiBench, the Wisconsin pointer-intensive codes,
and BioBench/BioPerf.  Those binaries and their reference inputs are not
redistributable, so this package provides *synthetic* workload generators:
each benchmark class is a parameter set (instruction mix, value-width
behaviour, memory footprint and locality, branch behaviour) from which a
structured synthetic program is built and then functionally emulated to
produce a committed-instruction trace with *real* register values, memory
addresses and branch outcomes.  The statistical properties the paper's
techniques exploit — narrow integer values, upper-address-bit locality,
partial-value locality, near branch targets — therefore emerge from actual
emulated values rather than being injected as labels.
"""

from repro.workloads.parameters import (
    WorkloadParameters,
    BenchmarkClass,
    CLASS_PARAMETERS,
)
from repro.workloads.memory_model import MemoryModel, Region, AccessPattern
from repro.workloads.program import SyntheticProgram, build_program
from repro.workloads.emulator import Emulator, generate_trace
from repro.workloads.validation import (
    CLASS_EXPECTATIONS,
    ClassExpectations,
    TraceStats,
    validate_suite,
    validate_trace,
)
from repro.workloads.suite import (
    BENCHMARKS,
    BenchmarkSpec,
    benchmark_names,
    benchmarks_in_class,
    generate,
    standard_suite,
)

__all__ = [
    "WorkloadParameters",
    "BenchmarkClass",
    "CLASS_PARAMETERS",
    "MemoryModel",
    "Region",
    "AccessPattern",
    "SyntheticProgram",
    "build_program",
    "Emulator",
    "generate_trace",
    "BENCHMARKS",
    "BenchmarkSpec",
    "benchmark_names",
    "benchmarks_in_class",
    "generate",
    "standard_suite",
    "CLASS_EXPECTATIONS",
    "ClassExpectations",
    "TraceStats",
    "validate_suite",
    "validate_trace",
]
