"""Tests for the functional emulator."""

import numpy as np
import pytest

from repro.isa.compiled import OP_CODE, OPCLASS_LIST, TRACE_DTYPE
from repro.isa.opcodes import OpClass
from repro.workloads.emulator import Emulator, generate_trace
from repro.workloads.memory_model import HEAP_BASE, STACK_BASE
from repro.workloads.parameters import CLASS_PARAMETERS, BenchmarkClass
from repro.workloads.program import build_program
from repro.workloads.validation import TraceStats

PARAMS = CLASS_PARAMETERS[BenchmarkClass.MEDIABENCH]


IS_CONTROL = np.array([op.is_control for op in OPCLASS_LIST])


def emulate(length=2000, seed=5, params=PARAMS):
    """The committed-instruction rows of one emulator run."""
    return generate_trace("t", params, length, seed).array


def is_op(rows, op):
    return rows["op"] == OP_CODE[op]


class TestBasics:
    def test_length_exact(self):
        assert len(emulate(1234)) == 1234

    def test_run_returns_compiled_rows(self):
        program = build_program(PARAMS, 5)
        rows = Emulator(program, 5).run(1234)
        assert rows.dtype == TRACE_DTYPE
        assert len(rows) == 1234

    def test_rejects_non_positive_length(self):
        program = build_program(PARAMS, 1)
        with pytest.raises(ValueError):
            Emulator(program, 1).run(0)

    def test_deterministic(self):
        a = emulate(seed=7)
        b = emulate(seed=7)
        assert np.array_equal(a["pc"], b["pc"])
        assert np.array_equal(a["result"], b["result"])

    def test_trace_wrapper(self):
        trace = generate_trace("x", PARAMS, length=500, seed=3, benchmark_class="c")
        assert trace.name == "x"
        assert trace.benchmark_class == "c"
        assert len(trace) == 500


class TestControlFlowConsistency:
    def test_taken_branches_have_targets(self):
        rows = emulate()
        taken = IS_CONTROL[rows["op"]] & rows["taken"]
        assert rows["has_target"][taken].all()

    def test_calls_enter_leaves_and_return(self):
        rows = emulate(4000)
        calls = np.flatnonzero(is_op(rows, OpClass.CALL)[:-1])
        # The next committed instruction is at the call target.
        assert np.array_equal(rows["pc"][calls + 1], rows["target"][calls])

    def test_returns_resume_after_call(self):
        rows = emulate(4000)
        call_stack = []
        for op, pc, target in zip(rows["op"].tolist(), rows["pc"].tolist(),
                                  rows["target"].tolist()):
            if op == OP_CODE[OpClass.CALL]:
                call_stack.append(pc + 4)
            elif op == OP_CODE[OpClass.RETURN] and call_stack:
                assert target == call_stack.pop()

    def test_committed_path_is_sequential(self):
        """Each instruction's next PC is the next instruction's pc."""
        rows = emulate(3000)
        next_pc = np.where(IS_CONTROL[rows["op"]] & rows["taken"],
                           rows["target"], rows["pc"] + np.uint64(4))
        # The committed path is fully sequential by construction.
        assert np.array_equal(next_pc[:-1], rows["pc"][1:])


class TestMemoryConsistency:
    def test_addresses_in_known_regions(self):
        rows = emulate()
        addrs = rows["mem_addr"][rows["has_mem_addr"]]
        in_heap = (addrs >= np.uint64(HEAP_BASE)) & (addrs < np.uint64(STACK_BASE))
        in_stack = addrs >= np.uint64(STACK_BASE)
        assert (in_heap | in_stack).all()

    def test_addresses_word_aligned(self):
        rows = emulate()
        assert (rows["mem_addr"][rows["has_mem_addr"]] % 8 == 0).all()

    def test_store_to_load_value_consistency(self):
        """A load after a store to the same word sees the stored value."""
        rows = emulate(6000)
        memory = {}
        for op, addr, value in zip(rows["op"].tolist(),
                                   rows["mem_addr"].tolist(),
                                   rows["mem_value"].tolist()):
            if op == OP_CODE[OpClass.STORE]:
                memory[addr] = value
            elif op == OP_CODE[OpClass.LOAD] and addr in memory:
                assert value == memory[addr]

    def test_loads_write_their_value(self):
        rows = emulate()
        loads = is_op(rows, OpClass.LOAD) & (rows["dst"] >= 0)
        assert np.array_equal(rows["result"][loads], rows["mem_value"][loads])


class TestValueConsistency:
    def test_src_values_match_dataflow(self):
        """Register reads observe the most recent architectural write."""
        regs = {}
        checked = 0
        for row in emulate(5000).tolist():
            pc, nsrcs, nvals, dst, result = row[0], row[2], row[3], row[6], row[7]
            srcs, values = row[4:4 + nsrcs], row[8:8 + nvals]
            for reg, value in zip(srcs, values):
                if reg in regs:
                    assert value == regs[reg], f"at pc={pc:#x} reg r{reg}"
                    checked += 1
            if dst >= 0 and dst != 31:
                regs[dst] = result
        assert checked > 1000

    def test_results_are_64_bit(self):
        assert emulate()["result"].dtype == np.uint64


class TestStatisticalShape:
    def test_mediabench_is_narrow(self):
        trace = generate_trace("m", PARAMS, 6000, seed=2)
        stats = TraceStats.from_trace(trace)
        assert stats.low_width_result_fraction > 0.5

    def test_pointer_class_is_wide(self):
        params = CLASS_PARAMETERS[BenchmarkClass.POINTER]
        trace = generate_trace("p", params, 6000, seed=2)
        stats = TraceStats.from_trace(trace)
        media = TraceStats.from_trace(generate_trace("m", PARAMS, 6000, seed=2))
        assert stats.low_width_result_fraction < media.low_width_result_fraction

    def test_fp_class_has_fp_ops(self):
        params = CLASS_PARAMETERS[BenchmarkClass.SPECFP]
        trace = generate_trace("f", params, 6000, seed=2)
        is_fp = np.array([op.is_fp for op in OPCLASS_LIST])
        fp = np.count_nonzero(is_fp[trace.array["op"]])
        assert fp / len(trace) > 0.10

    def test_branches_present_and_taken_biased(self):
        stats = TraceStats.from_trace(generate_trace("m", PARAMS, 6000, seed=2))
        assert 0.02 < stats.branch_fraction < 0.40
        assert stats.taken_fraction > 0.5
