"""Tests for the functional emulator."""

import pytest

from repro.isa.compiled import TRACE_DTYPE
from repro.isa.opcodes import OpClass
from repro.workloads.emulator import Emulator, generate_trace
from repro.workloads.memory_model import HEAP_BASE, STACK_BASE
from repro.workloads.parameters import CLASS_PARAMETERS, BenchmarkClass
from repro.workloads.program import build_program

PARAMS = CLASS_PARAMETERS[BenchmarkClass.MEDIABENCH]


def emulate(length=2000, seed=5, params=PARAMS):
    """The committed instructions of one emulator run."""
    return generate_trace("t", params, length, seed).instructions


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
        assert [i.pc for i in a] == [i.pc for i in b]
        assert [i.result for i in a] == [i.result for i in b]

    def test_trace_wrapper(self):
        trace = generate_trace("x", PARAMS, length=500, seed=3, benchmark_class="c")
        assert trace.name == "x"
        assert trace.benchmark_class == "c"
        assert len(trace) == 500


class TestControlFlowConsistency:
    def test_taken_branches_have_targets(self):
        for inst in emulate():
            if inst.op.is_control and inst.taken:
                assert inst.target is not None

    def test_calls_enter_leaves_and_return(self):
        insts = emulate(4000)
        for i, inst in enumerate(insts):
            if inst.op is OpClass.CALL and i + 1 < len(insts):
                # The next committed instruction is at the call target.
                assert insts[i + 1].pc == inst.target

    def test_returns_resume_after_call(self):
        insts = emulate(4000)
        call_stack = []
        for inst in insts:
            if inst.op is OpClass.CALL:
                call_stack.append(inst.pc + 4)
            elif inst.op is OpClass.RETURN and call_stack:
                assert inst.target == call_stack.pop()

    def test_committed_path_is_sequential(self):
        """Each instruction's next_pc is the next instruction's pc."""
        insts = emulate(3000)
        breaks = 0
        for a, b in zip(insts, insts[1:]):
            if a.next_pc != b.pc:
                breaks += 1
        # The committed path is fully sequential by construction.
        assert breaks == 0


class TestMemoryConsistency:
    def test_addresses_in_known_regions(self):
        for inst in emulate():
            if inst.mem_addr is not None:
                in_heap = HEAP_BASE <= inst.mem_addr < STACK_BASE
                in_stack = inst.mem_addr >= STACK_BASE
                assert in_heap or in_stack

    def test_addresses_word_aligned(self):
        for inst in emulate():
            if inst.mem_addr is not None:
                assert inst.mem_addr % 8 == 0

    def test_store_to_load_value_consistency(self):
        """A load after a store to the same word sees the stored value."""
        insts = emulate(6000)
        memory = {}
        for inst in insts:
            if inst.op is OpClass.STORE:
                memory[inst.mem_addr] = inst.mem_value
            elif inst.op is OpClass.LOAD and inst.mem_addr in memory:
                assert inst.mem_value == memory[inst.mem_addr]

    def test_loads_write_their_value(self):
        for inst in emulate():
            if inst.op is OpClass.LOAD and inst.dst is not None:
                assert inst.result == inst.mem_value


class TestValueConsistency:
    def test_src_values_match_dataflow(self):
        """Register reads observe the most recent architectural write."""
        regs = {}
        checked = 0
        for inst in emulate(5000):
            for reg, value in zip(inst.srcs, inst.src_values):
                if reg in regs:
                    assert value == regs[reg], f"at pc={inst.pc:#x} reg r{reg}"
                    checked += 1
            if inst.dst is not None and inst.dst != 31:
                regs[inst.dst] = inst.result
        assert checked > 1000

    def test_results_are_64_bit(self):
        for inst in emulate():
            assert 0 <= inst.result < (1 << 64)


class TestStatisticalShape:
    def test_mediabench_is_narrow(self):
        trace = generate_trace("m", PARAMS, 6000, seed=2)
        stats = trace.stats()
        assert stats.low_width_result_fraction > 0.5

    def test_pointer_class_is_wide(self):
        params = CLASS_PARAMETERS[BenchmarkClass.POINTER]
        trace = generate_trace("p", params, 6000, seed=2)
        stats = trace.stats()
        media = generate_trace("m", PARAMS, 6000, seed=2).stats()
        assert stats.low_width_result_fraction < media.low_width_result_fraction

    def test_fp_class_has_fp_ops(self):
        params = CLASS_PARAMETERS[BenchmarkClass.SPECFP]
        trace = generate_trace("f", params, 6000, seed=2)
        from repro.isa.opcodes import OpClass as OC
        fp = sum(1 for i in trace if i.op.is_fp)
        assert fp / len(trace) > 0.10

    def test_branches_present_and_taken_biased(self):
        stats = generate_trace("m", PARAMS, 6000, seed=2).stats()
        assert 0.02 < stats.branch_fraction < 0.40
        assert stats.taken_fraction > 0.5
