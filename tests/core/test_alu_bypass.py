"""The partitioned ALU and bypass network (Sections 3.2-3.3), as the
timing core computes them on tiny traces."""

from repro.core.activity import NUM_DIES
from repro.isa.opcodes import OpClass
from tests.tiny_traces import WIDE, alu, oracle_config, run

#: The first occurrence of this PC trains its predictor entry to low width.
TRAINED = alu(0x200, 1)


class TestALU:
    def test_full_prediction_uses_all_dies(self):
        # A fresh predictor entry predicts full width.
        result = run([alu(0x100, 1)])
        assert result.activity.modules()["alu"].per_die == [1] * NUM_DIES
        assert result.stalls.alu_reexecutions == 0
        assert result.stalls.alu_input_stalls == 0

    def test_correct_low_prediction_gates(self):
        alu_activity = run([alu(0x100, 1)], oracle_config()).activity.modules()["alu"]
        assert alu_activity.per_die == [1, 0, 0, 0]
        assert alu_activity.top_only == 1

    def test_input_misprediction_stalls_one_cycle(self):
        # A wide operand arrives on the bypass from the multiply just ahead.
        result = run([
            TRAINED,
            alu(0x300, WIDE, dst=5, op=OpClass.IMUL),
            alu(0x200, WIDE, srcs=(5,), values=(WIDE,)),
        ])
        assert result.stalls.alu_input_stalls == 1
        assert result.stalls.alu_reexecutions == 0

    def test_output_misprediction_reexecutes(self):
        """16+16 bits can make 17: low operands, full result."""
        result = run([
            TRAINED,
            alu(0x200, 0xFFFE, srcs=(3, 4), values=(0x7FFF, 0x7FFF)),
        ])
        assert result.stalls.alu_reexecutions == 1
        # The wasted gated pass plus the full re-execution are both
        # charged, after the first occurrence's full-width pass.
        alu_activity = result.activity.modules()["alu"]
        assert alu_activity.total == 3
        assert alu_activity.top_only == 1

    def test_full_prediction_is_always_safe(self):
        """Full-width prediction enables everything: no stall possible."""
        trace = [alu(0x300, WIDE, dst=5, op=OpClass.IMUL)]
        pc = 0x400
        for operand in (1, WIDE):
            for result in (1, WIDE):
                # Each op reads the multiply's register through the bypass
                # at a fresh (full-width) predictor entry.
                trace.append(alu(pc, result, srcs=(5,), values=(operand,), dst=6))
                pc += 4
        stalls = run(trace).stalls
        assert stalls.alu_input_stalls == 0
        assert stalls.alu_reexecutions == 0


class TestBypass:
    def test_low_width_drives_top_die(self):
        bypass = run([alu(0x100, 1)]).activity.modules()["bypass"]
        assert bypass.top_only == 1
        assert bypass.per_die == [1, 0, 0, 0]

    def test_full_width_drives_all(self):
        bypass = run([alu(0x100, WIDE)]).activity.modules()["bypass"]
        assert bypass.per_die == [1] * NUM_DIES

    def test_mixed_stream_accounting(self):
        trace = [alu(0x100 + 4 * i, result)
                 for i, result in enumerate((1, 1, WIDE, 1))]
        bypass = run(trace).activity.modules()["bypass"]
        assert bypass.total == 4
        assert bypass.top_only == 3
        assert bypass.per_die[3] == 1
