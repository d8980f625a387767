"""Trace instruction-set layer.

The reproduction is trace driven: workload generators (:mod:`repro.workloads`)
emit committed-instruction traces that the timing model (:mod:`repro.cpu`)
replays.  A trace is one :data:`~repro.isa.compiled.TRACE_DTYPE` row per
instruction (:class:`~repro.isa.compiled.CompiledTrace`).  This package
defines that row format, the opcode classes, the register namespace, and
the value-width utilities that the Thermal Herding techniques build on.
"""
