"""Property-based tests: the timing model on arbitrary valid traces."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cpu.config import baseline_config, full_3d_config
from repro.cpu.pipeline import simulate
from repro.isa.compiled import OPCLASS_LIST, compile_trace, trace_row
from repro.isa.opcodes import OpClass

_CODE = 0x40_0000
_HEAP = 0x2AAA_0000_0000


@st.composite
def mini_traces(draw):
    """A small, structurally valid committed-instruction trace."""
    length = draw(st.integers(min_value=4, max_value=60))
    rows = []
    pc = _CODE
    for i in range(length):
        kind = draw(st.sampled_from(["alu", "load", "store", "branch", "fp"]))
        value = draw(st.integers(min_value=0, max_value=(1 << 64) - 1))
        reg = draw(st.integers(min_value=0, max_value=29))
        if kind == "alu":
            row = trace_row(
                pc=pc, op=OpClass.IALU, srcs=(reg,), dst=(reg + 1) % 30,
                result=value, src_values=(value,),
            )
        elif kind == "load":
            addr = _HEAP + draw(st.integers(min_value=0, max_value=1 << 16)) * 8
            row = trace_row(
                pc=pc, op=OpClass.LOAD, srcs=(reg,), dst=(reg + 1) % 30,
                result=value, src_values=(addr,), mem_addr=addr, mem_value=value,
            )
        elif kind == "store":
            addr = _HEAP + draw(st.integers(min_value=0, max_value=1 << 16)) * 8
            row = trace_row(
                pc=pc, op=OpClass.STORE, srcs=(reg, (reg + 1) % 30),
                src_values=(addr, value), mem_addr=addr, mem_value=value,
            )
        elif kind == "branch":
            taken = draw(st.booleans())
            # Forward target within the trace keeps the PC space small.
            target = pc + 4 * draw(st.integers(min_value=1, max_value=4))
            row = trace_row(
                pc=pc, op=OpClass.BRANCH, srcs=(reg,), src_values=(value,),
                taken=taken, target=target if taken else None,
            )
            if taken:
                pc = target - 4
        else:
            row = trace_row(
                pc=pc, op=OpClass.FADD, srcs=(40, 41), dst=42,
                result=value, src_values=(1, 2),
            )
        rows.append(row)
        pc += 4
    return compile_trace("prop", rows)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mini_traces())
def test_simulation_invariants_base(trace):
    result = simulate(trace, baseline_config())
    # Committed everything, took at least ceil(n / commit_width) cycles.
    assert result.instructions == len(trace)
    assert result.cycles >= len(trace) / baseline_config().commit_width
    # Every instruction passed rename exactly once.
    assert result.activity.module("rename").total == len(trace)
    # IPC bounded by machine width.
    assert result.ipc <= baseline_config().commit_width


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mini_traces())
def test_simulation_invariants_3d(trace):
    result = simulate(trace, full_3d_config())
    assert result.instructions == len(trace)
    stats = result.width_stats
    assert stats is not None
    datapath = sum(OPCLASS_LIST[code].is_integer_datapath
                   for code in trace.array["op"].tolist())
    assert stats.predictions == datapath
    assert (stats.correct + stats.unsafe_mispredictions
            + stats.safe_mispredictions) == stats.predictions
    # Herded fractions are true fractions.
    for metric, value in result.herding.items():
        if metric.startswith("herded::") or metric.endswith("_herded") \
                or metric.endswith("herded_loads"):
            assert 0.0 <= value <= 1.0, metric


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mini_traces())
def test_determinism_property(trace):
    a = simulate(trace, full_3d_config())
    b = simulate(trace, full_3d_config())
    assert a.cycles == b.cycles
    assert a.stalls.total == b.stalls.total


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mini_traces())
def test_th_never_commits_different_work(trace):
    """Thermal Herding changes timing, never the committed instructions."""
    base = simulate(trace, baseline_config())
    herded = simulate(trace, full_3d_config())
    assert base.instructions == herded.instructions
