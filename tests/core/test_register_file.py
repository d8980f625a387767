"""The word-partitioned register file (Section 3.1), as the timing core
computes it on tiny traces."""

from repro.core.activity import NUM_DIES
from repro.isa.values import to_unsigned
from tests.tiny_traces import WIDE, alu, nops, oracle_config, run

#: The first occurrence of this PC trains its predictor entry to low width.
TRAINED = alu(0x200, 1, srcs=())


def write(reg, value, pc=0x100):
    return alu(pc, value, srcs=(), dst=reg)


def trained_read(*regs_and_values):
    """A read of ``(reg, value)`` pairs at the low-predicted PC."""
    regs = tuple(reg for reg, _ in regs_and_values)
    values = tuple(value for _, value in regs_and_values)
    return alu(0x200, 1, srcs=regs, values=values, dst=None)


class TestWrites:
    def test_low_width_write_top_die_only(self):
        rf = run([write(3, 42)]).activity.modules()["register_file"]
        assert rf.top_only == 1

    def test_full_width_write_all_dies(self):
        rf = run([write(3, WIDE)]).activity.modules()["register_file"]
        assert rf.top_only == 0
        assert rf.per_die == [1] * NUM_DIES

    def test_memoization_follows_writes(self):
        # The bit a write leaves decides whether a low-predicted read of
        # the register stalls.
        for value, stalls in ((42, 0), (WIDE, 1)):
            result = run([TRAINED, write(3, value), *nops(0x300),
                          trained_read((3, value))])
            assert result.stalls.rf_group_stalls == stalls, value

    def test_negative_low_width(self):
        value = to_unsigned(-7)
        result = run([TRAINED, write(3, value), *nops(0x300),
                      trained_read((3, value))])
        assert result.stalls.rf_group_stalls == 0
        rf = result.activity.modules()["register_file"]
        # Two low writes (the trained op's and r3's) and one low read.
        assert rf.top_only == 3


class TestReads:
    def test_correct_low_prediction_stays_on_top(self):
        result = run([alu(0x100, 5, srcs=(1,), values=(5,))], oracle_config())
        assert result.stalls.rf_group_stalls == 0
        rf = result.activity.modules()["register_file"]
        assert rf.top_only == rf.total == 2  # one read, one write

    def test_unsafe_misprediction_stalls(self):
        result = run([TRAINED, write(1, WIDE), *nops(0x300),
                      trained_read((1, WIDE))])
        assert result.stalls.rf_group_stalls == 1
        assert result.width_stats.unsafe_mispredictions == 1

    def test_full_prediction_never_stalls(self):
        result = run([write(1, WIDE), *nops(0x300),
                      alu(0x400, 1, srcs=(1,), values=(WIDE,), dst=None)])
        assert result.stalls.rf_group_stalls == 0

    def test_group_shares_single_stall(self):
        """Two unsafe reads in one dispatch group -> one stall."""
        result = run([TRAINED, write(1, WIDE), write(2, 1 << 41, pc=0x104),
                      *nops(0x300), trained_read((1, WIDE), (2, 1 << 41))])
        assert result.stalls.rf_group_stalls == 1
        rf = result.activity.modules()["register_file"]
        assert rf.total == 5  # three writes, two reads

    def test_lazy_memoization_from_value(self):
        """Registers never written derive their memo bit from the value."""
        result = run([TRAINED, trained_read((9, 1 << 33))])
        assert result.stalls.rf_group_stalls == 1

    def test_activity_counts(self):
        result = run([
            write(1, 5), write(2, WIDE, pc=0x104), *nops(0x300),
            alu(0x400, 0, srcs=(1,), values=(5,), dst=None),
            alu(0x404, 0, srcs=(2,), values=(WIDE,), dst=None),
        ], oracle_config())
        rf = result.activity.modules()["register_file"]
        # 2 writes + 2 reads.
        assert rf.total == 4
        # low write + herded read.
        assert rf.top_only == 2
