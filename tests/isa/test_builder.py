"""Tests for the fluent trace builder."""

import pytest

from repro.cpu.config import baseline_config
from repro.cpu.pipeline import simulate
from repro.isa.builder import TraceBuilder
from repro.isa.compiled import OP_CODE
from repro.isa.opcodes import OpClass


def src_values(trace, i):
    """Row ``i``'s source values, one per source it reads."""
    row = trace.array[i]
    return (int(row["sval0"]), int(row["sval1"]))[:int(row["nvals"])]


class TestBasics:
    def test_sequential_pcs(self):
        trace = TraceBuilder(start_pc=0x1000).alu(1, 5).alu(2, 6).build()
        assert trace.array["pc"].tolist() == [0x1000, 0x1004]

    def test_rejects_unaligned_start(self):
        with pytest.raises(ValueError):
            TraceBuilder(start_pc=0x1002)

    def test_dataflow_values_tracked(self):
        trace = (TraceBuilder()
                 .alu(1, 5)
                 .alu(2, 9, srcs=(1,))
                 .alu(3, 14, srcs=(1, 2))
                 .build())
        assert src_values(trace, 1) == (5,)
        assert src_values(trace, 2) == (5, 9)

    def test_unwritten_register_reads_zero(self):
        trace = TraceBuilder().alu(1, 5, srcs=(9,)).build()
        assert src_values(trace, 0) == (0,)

    def test_memory_ops(self):
        trace = (TraceBuilder()
                 .alu(1, 0x2AAA_0000_0000)
                 .load(2, addr=0x2AAA_0000_0000, value=99, srcs=(1,))
                 .store(addr=0x2AAA_0000_0008, value=99, srcs=(1, 2))
                 .build())
        assert trace.array[1]["mem_value"] == 99
        assert src_values(trace, 2) == (0x2AAA_0000_0000, 99)

    def test_negative_results_normalized(self):
        trace = TraceBuilder().alu(1, -5).build()
        assert trace.array[0]["result"] == (1 << 64) - 5


class TestControlFlow:
    def test_taken_branch_moves_pc(self):
        builder = TraceBuilder(start_pc=0x1000)
        builder.branch(taken=True, target=0x1010)
        assert builder.next_pc == 0x1010

    def test_taken_branch_requires_target(self):
        with pytest.raises(ValueError):
            TraceBuilder().branch(taken=True)

    def test_unaligned_target_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder().branch(taken=True, target=0x1002)

    def test_path_continuity_enforced(self):
        builder = TraceBuilder(start_pc=0x1000)
        builder.alu(1, 5)
        # Manually append a discontiguous instruction via a jump misuse:
        builder._pc = 0x9000  # simulate a bug
        builder.alu(2, 6)
        with pytest.raises(ValueError):
            builder.build()

    def test_call_ret_jump(self):
        trace = (TraceBuilder(start_pc=0x1000)
                 .call(0x2000)           # -> 0x2000
                 .alu(1, 5)              # 0x2000
                 .ret(0x1004)            # back
                 .jump(0x3000)
                 .alu(2, 6)
                 .build())
        assert trace.array[1]["pc"] == 0x2000
        assert trace.array[3]["op"] == OP_CODE[OpClass.JUMP]
        assert trace.array[4]["pc"] == 0x3000

    def test_repeat(self):
        def body(b, i):
            b.alu(1, i)
        trace = TraceBuilder().repeat(5, body).build()
        assert len(trace) == 5
        assert trace.array[4]["result"] == 4


class TestValidation:
    def test_bad_alu_opcode(self):
        with pytest.raises(ValueError):
            TraceBuilder().alu(1, 5, op=OpClass.LOAD)

    def test_bad_fp_opcode(self):
        with pytest.raises(ValueError):
            TraceBuilder().fp(40, op=OpClass.IALU)

    def test_negative_repeat(self):
        with pytest.raises(ValueError):
            TraceBuilder().repeat(-1, lambda b, i: None)


class TestSimulatorIntegration:
    def test_built_trace_simulates(self):
        def body(builder, i):
            builder.alu(1, i).alu(2, i + 1, srcs=(1,))
        trace = TraceBuilder("micro").repeat(50, body).build()
        result = simulate(trace, baseline_config())
        assert result.instructions == 100
        assert result.ipc > 0.3

    def test_dependent_chain_microbench(self):
        builder = TraceBuilder("chain")
        value = 0
        for i in range(60):
            value += 1
            builder.alu(1, value, srcs=(1,))
        result = simulate(builder.build(), baseline_config())
        # A pure dependence chain commits ~1 per cycle at best.
        assert result.ipc <= 1.1
