"""Trace instruction-set layer.

The reproduction is trace driven: workload generators (:mod:`repro.workloads`)
emit committed-instruction traces that the timing model (:mod:`repro.cpu`)
replays.  A trace is one :data:`~repro.isa.compiled.TRACE_DTYPE` row per
instruction (:class:`~repro.isa.compiled.CompiledTrace`).  This package
defines that row format, the opcode classes, the register namespace, and
the value-width utilities that the Thermal Herding techniques build on.
"""

from repro.isa.opcodes import OpClass, FunctionalUnit, FU_FOR_OP, OP_LATENCY
from repro.isa.compiled import CompiledTrace, compile_trace, trace_row
from repro.isa.registers import (
    NUM_INT_REGS,
    NUM_FP_REGS,
    RegisterClass,
    register_class,
)
from repro.isa.builder import TraceBuilder
from repro.isa.values import (
    LOW_WIDTH_BITS,
    WORD_BITS,
    WORDS_PER_VALUE,
    VALUE_BITS,
    UpperBitsEncoding,
    classify_upper_bits,
    is_low_width,
    sign_extend,
    significant_width,
    split_words,
    upper_bits,
    join_words,
)

__all__ = [
    "OpClass",
    "FunctionalUnit",
    "FU_FOR_OP",
    "OP_LATENCY",
    "CompiledTrace",
    "compile_trace",
    "trace_row",
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "RegisterClass",
    "register_class",
    "TraceBuilder",
    "LOW_WIDTH_BITS",
    "WORD_BITS",
    "WORDS_PER_VALUE",
    "VALUE_BITS",
    "UpperBitsEncoding",
    "classify_upper_bits",
    "is_low_width",
    "sign_extend",
    "significant_width",
    "split_words",
    "upper_bits",
    "join_words",
]
