"""Tiny hand-made traces for mechanism tests of the timing core.

Each builder returns one :class:`~repro.isa.instruction.TraceInstruction`;
:func:`run` replays a list of them through
:meth:`~repro.cpu.pipeline.TimingSimulator.run_compiled`, the only core
model, and :func:`pre` gives the pre-decoded columns the wavefront walks
read.  Registers that a trace never writes take their width memoization
bit from the value read, so a test controls every width outcome through
the values it writes into the rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional, Tuple

from repro.cpu.config import (
    CPUConfig,
    WidthPredictorKind,
    baseline_config,
    thermal_herding_config,
)
from repro.cpu.pipeline import TimingSimulator
from repro.cpu.predecode import PreDecodedTrace, predecode
from repro.cpu.results import SimulationResult
from repro.cpu.wavefront import IntervalCapture
from repro.isa.instruction import TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace

#: A full-width value (its upper 48 bits are neither all zeros nor all ones).
WIDE = 1 << 40
STACK_ADDR = 0x7FFF_FFFF_0100
HEAP_ADDR = 0x2AAA_0000_1000


def alu(pc: int, result: int = 1, srcs: Tuple[int, ...] = (1,),
        values: Optional[Tuple[int, ...]] = None, dst: Optional[int] = 2,
        op: OpClass = OpClass.IALU) -> TraceInstruction:
    """An integer op; source values default to 1 (low width)."""
    if values is None:
        values = (1,) * len(srcs)
    return TraceInstruction(pc=pc, op=op, srcs=srcs, dst=dst,
                            result=result if dst is not None else 0,
                            src_values=values)


def load(pc: int, addr: int, value: int = 1, dst: int = 2,
         base: int = 1) -> TraceInstruction:
    """A load of ``value`` from ``addr``; the base register holds ``addr``."""
    return TraceInstruction(pc=pc, op=OpClass.LOAD, srcs=(base,), dst=dst,
                            result=value, src_values=(addr,),
                            mem_addr=addr, mem_value=value)


def store(pc: int, addr: int, value: int = 1, base: int = 1,
          data: int = 3) -> TraceInstruction:
    """A store of ``value`` (held in register ``data``) to ``addr``."""
    return TraceInstruction(pc=pc, op=OpClass.STORE, srcs=(base, data),
                            src_values=(addr, value),
                            mem_addr=addr, mem_value=value)


def branch(pc: int, taken: bool, target: int = 0x2000) -> TraceInstruction:
    return TraceInstruction(pc=pc, op=OpClass.BRANCH, taken=taken,
                            target=target if taken else None)


def jump(pc: int, target: int) -> TraceInstruction:
    return TraceInstruction(pc=pc, op=OpClass.JUMP, taken=True, target=target)


def call(pc: int, target: int) -> TraceInstruction:
    return TraceInstruction(pc=pc, op=OpClass.CALL, taken=True, target=target)


def ret(pc: int, target: int) -> TraceInstruction:
    return TraceInstruction(pc=pc, op=OpClass.RETURN, taken=True, target=target)


def th_config(**overrides) -> CPUConfig:
    """The Thermal Herding configuration with ``overrides`` applied."""
    return replace(thermal_herding_config(), **overrides)


def oracle_config(**overrides) -> CPUConfig:
    """Thermal Herding with an always-right width predictor."""
    return th_config(width_predictor_kind=WidthPredictorKind.ORACLE, **overrides)


def base_config(**overrides) -> CPUConfig:
    """The planar baseline (no herding) with ``overrides`` applied."""
    return replace(baseline_config(), **overrides)


def pre(insts: Iterable[TraceInstruction], name: str = "tiny") -> PreDecodedTrace:
    """The pre-decoded columns of a hand-made trace."""
    return predecode(Trace(name, list(insts)).compiled())


def run(insts: Iterable[TraceInstruction], config: Optional[CPUConfig] = None,
        warmup: int = 0, prewarm: bool = True) -> SimulationResult:
    """Simulate a hand-made trace (Thermal Herding by default)."""
    return TimingSimulator(config or th_config()).run_compiled(
        pre(insts), warmup=warmup, prewarm=prewarm
    )


def occurrences(outcomes: Iterable[bool], pc: int = 0x40) -> List[TraceInstruction]:
    """One source-less op at ``pc`` per outcome (True = low width).

    Without register sources an op is classified by its result alone and
    cannot stall at register read, so :func:`gated` shows each raw
    width prediction.
    """
    return [alu(pc, 1 if low else WIDE, srcs=()) for low in outcomes]


def nops(pc: int, count: int = 12) -> List[TraceInstruction]:
    """``count`` no-ops from ``pc``: enough dispatch cycles for every
    earlier result to be back in the register file before the next
    instruction reads it."""
    return [TraceInstruction(pc=pc + 4 * i, op=OpClass.NOP) for i in range(count)]


def gated(insts: Iterable[TraceInstruction],
          config: Optional[CPUConfig] = None) -> List[bool]:
    """Per instruction, did its ALU pass run on the top die alone?

    For an ALU op this is its effective width prediction: low, and not
    overturned by a register-read stall.  One-instruction intervals of an
    :class:`~repro.cpu.wavefront.IntervalCapture` expose the loop's
    gated-pass tally instruction by instruction.
    """
    capture = IntervalCapture(1)
    TimingSimulator(config or th_config()).run_compiled(
        pre(insts), capture=capture
    )
    return (capture.deltas("alu1") > 0).tolist()
