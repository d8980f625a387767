"""Bit-level soundness of the partitioned datapath, checked against the
timing core.

The core never computes values: it classifies each trace value as low
or full width (:mod:`repro.cpu.predecode`) and charges a recovery
whenever a low-width prediction would read, add or load a wrong value.
These tests hold that classification to the arithmetic it stands for —
a 16-bit gated add is exact iff its sign-extended low word equals the
full sum, and an encoded L1D word is exact iff its 2-bit encoding
reconstructs the upper 48 bits — and check that every unsafe case costs
exactly one recovery.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.compiled import TraceCompileError
from repro.isa.values import (
    UpperBitsEncoding,
    classify_upper_bits,
    is_low_width,
    sign_extend,
    to_unsigned,
    upper_bits,
)
from tests.tiny_traces import (
    WIDE,
    alu,
    nops,
    oracle_config,
    pre,
    run,
)
from tests.tiny_traces import load as load_op
from tests.tiny_traces import store as store_op

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
low16 = st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)

LINE_BASE = 0x2AAA_0000_1000
MASK = (1 << 64) - 1

#: The first occurrence of this PC trains its predictor entry to low width.
TRAINED = alu(0x200, 1, srcs=())


def gated_sum(a, b):
    """What a 16-bit add with the upper dies gated produces."""
    return to_unsigned(sign_extend((a + b) & 0xFFFF, 16))


def add(a, b, pc=0x200):
    """``a + b`` at ``pc``, reading two never-written registers."""
    return alu(pc, (a + b) & MASK, srcs=(3, 4), values=(a, b))


class TestPartitionedAdder:
    @settings(max_examples=50, deadline=None)
    @given(u64, u64)
    def test_full_width_add_exact(self, a, b):
        # A full-width pass computes any sum exactly: no recovery, all
        # four ALU dies enabled.
        result = run([add(a, b, pc=0x100)])
        assert result.stalls.alu_reexecutions == 0
        assert result.stalls.rf_group_stalls == 0
        assert result.activity.modules()["alu"].per_die == [1, 1, 1, 1]

    @settings(max_examples=50, deadline=None)
    @given(low16, low16)
    def test_gated_add_correct_when_sum_fits(self, a, b):
        ua, ub = to_unsigned(a), to_unsigned(b)
        true_sum = (ua + ub) & MASK
        assert pre([add(ua, ub)]).result_low == [is_low_width(true_sum)]
        # Re-executed exactly when the gated result is wrong.
        reexecuted = run([TRAINED, add(ua, ub)]).stalls.alu_reexecutions
        assert reexecuted == (gated_sum(ua, ub) != true_sum)

    def test_16_plus_16_makes_17(self):
        """The paper's example: adding two low-width values can need 17
        bits — 0x7FFF + 0x7FFF = 0xFFFE is not a 16-bit signed value, so
        the gated add must re-execute."""
        columns = pre([add(0x7FFF, 0x7FFF)])
        assert columns.operands_low == [True]
        assert columns.result_low == [False]
        assert run([TRAINED, add(0x7FFF, 0x7FFF)]).stalls.alu_reexecutions == 1

    def test_carry_crosses_dies(self):
        # A carry out of the low word makes the sum full width.
        assert pre([add(0xFFFF, 1)]).result_low == [False]
        assert upper_bits(0xFFFF + 1) == 1

    def test_gated_carry_lost(self):
        # A borrow into the upper words is lost by the gated add too.
        a, b = to_unsigned(-0x8000), to_unsigned(-1)
        assert gated_sum(a, b) != (a + b) & MASK
        assert run([TRAINED, add(a, b)]).stalls.alu_reexecutions == 1

    @settings(max_examples=50, deadline=None)
    @given(u64, u64, st.booleans())
    def test_add_checked_always_correct(self, a, b, predicted_low):
        """Every unsafe low-width add pays exactly one recovery, so the
        architectural result is always exact."""
        trace = ([TRAINED] if predicted_low else []) + [add(a, b)]
        stalls = run(trace).stalls
        operands_low = is_low_width(a) and is_low_width(b)
        exact = operands_low and gated_sum(a, b) == (a + b) & MASK
        recoveries = stalls.rf_group_stalls + stalls.alu_reexecutions
        assert recoveries == (predicted_low and not exact)
        # Wide operands are caught at register read, before the ALU.
        assert stalls.rf_group_stalls == (predicted_low and not operands_low)

    @settings(max_examples=50, deadline=None)
    @given(u64, u64)
    def test_reexecution_only_on_truncation(self, a, b):
        reexecuted = run([TRAINED, add(a, b)]).stalls.alu_reexecutions
        operands_low = is_low_width(a) and is_low_width(b)
        assert reexecuted == (operands_low and gated_sum(a, b) != (a + b) & MASK)


def write(reg, value, pc=0x100):
    return alu(pc, value, srcs=(), dst=reg)


def trained_read(reg, value):
    return alu(0x200, 1, srcs=(reg,), values=(value,), dst=None)


class TestFunctionalRegisterFile:
    @settings(max_examples=50, deadline=None)
    @given(u64)
    def test_write_read_roundtrip(self, value):
        # The memoization bit a write leaves is the value's own width.
        result = run([TRAINED, write(3, value), *nops(0x300),
                      trained_read(3, value)])
        assert result.stalls.rf_group_stalls == (not is_low_width(value))

    @settings(max_examples=50, deadline=None)
    @given(low16)
    def test_low_width_read_from_top_die_exact(self, signed):
        value = to_unsigned(signed)
        result = run([TRAINED, write(5, value), *nops(0x300),
                      trained_read(5, value)])
        assert result.stalls.rf_group_stalls == 0
        rf = result.activity.modules()["register_file"]
        assert rf.top_only == rf.total == 3  # two writes, one read

    def test_unsafe_read_detected_and_correct(self):
        result = run([TRAINED, write(2, WIDE), *nops(0x300),
                      trained_read(2, WIDE)])
        assert result.stalls.rf_group_stalls == 1
        rf = result.activity.modules()["register_file"]
        # The wide write and the recovered read enable all four dies.
        assert rf.per_die == [3, 2, 2, 2]

    def test_memoization_bit_tracks_width(self):
        result = run([TRAINED, write(1, 7), *nops(0x300), trained_read(1, 7),
                      write(1, 1 << 30, pc=0x104), *nops(0x400),
                      trained_read(1, 1 << 30)])
        assert result.stalls.rf_group_stalls == 1

    def test_stale_uppers_cleared(self):
        """Low write after a full write must not leak stale upper words."""
        result = run([TRAINED, write(4, 0xDEAD_BEEF_0000_1234),
                      write(4, 5, pc=0x104), *nops(0x300), trained_read(4, 5)])
        assert result.stalls.rf_group_stalls == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 31), u64), min_size=1, max_size=40))
    def test_predicted_full_reads_always_exact(self, writes):
        trace, model = [], {}
        for i, (reg, value) in enumerate(writes):
            trace.append(write(reg, value, pc=0x1000 + 4 * i))
            model[reg] = value
        trace += nops(0x3000)
        # Fresh predictor entries predict full width: no read can stall.
        for i, (reg, value) in enumerate(model.items()):
            trace.append(alu(0x4000 + 4 * i, 0, srcs=(reg,), values=(value,),
                             dst=None))
        assert run(trace).stalls.rf_group_stalls == 0

    def test_bounds(self):
        # Register ids are bounded by the trace layout's int16 columns:
        # the highest id carries its memoization bit like any other, and
        # one past it cannot be compiled, so it never reaches the core.
        top = (1 << 15) - 1
        result = run([TRAINED, write(top, WIDE), *nops(0x300),
                      trained_read(top, WIDE)])
        assert result.stalls.rf_group_stalls == 1
        with pytest.raises(TraceCompileError):
            pre([write(top + 1, 1)])


def encodings(value, addr):
    """``(load_compressed, store_compressed)`` of a store then a load of
    ``value`` at ``addr``, under the paper's two-bit scheme."""
    loads, stores = pre([store_op(0x100, addr, value),
                         load_op(0x104, addr, value)]).dc_columns("two_bit")
    return loads[1], stores[0]


class TestEncodedCacheLine:
    def test_alignment_enforced(self):
        # Encodings are kept per aligned 8-byte double word: a load
        # anywhere in the word observes the encoding its store installed.
        loads, _ = pre([store_op(0x100, LINE_BASE, WIDE),
                        load_op(0x104, LINE_BASE + 4, 1)]).dc_columns("two_bit")
        assert loads[1] is False

    @settings(max_examples=100, deadline=None)
    @given(u64, st.integers(0, 7))
    def test_roundtrip_exact(self, value, slot):
        addr = LINE_BASE + slot * 8
        encoding = classify_upper_bits(value, addr)
        # The compressed encodings rebuild the upper 48 bits exactly.
        rebuilt = {
            UpperBitsEncoding.ALL_ZEROS: 0,
            UpperBitsEncoding.ALL_ONES: (1 << 48) - 1,
            UpperBitsEncoding.SAME_AS_ADDRESS: upper_bits(addr),
        }.get(encoding, upper_bits(value))
        assert (rebuilt << 16) | (value & 0xFFFF) == value
        assert encodings(value, addr) == (encoding.is_compressed,) * 2

    def test_zero_compresses(self):
        assert classify_upper_bits(0x42, LINE_BASE) is UpperBitsEncoding.ALL_ZEROS
        assert encodings(0x42, LINE_BASE) == (True, True)
        result = run([store_op(0x100, LINE_BASE, 0x42),
                      load_op(0x104, LINE_BASE, 0x42)], oracle_config())
        assert result.herding["dcache_herded_loads"] == 1.0

    def test_negative_compresses(self):
        value = to_unsigned(-9)
        assert classify_upper_bits(value, LINE_BASE) is UpperBitsEncoding.ALL_ONES
        assert encodings(value, LINE_BASE + 8) == (True, True)

    def test_near_pointer_compresses(self):
        addr = LINE_BASE + 16
        pointer = (upper_bits(addr) << 16) | 0xBEE8
        assert classify_upper_bits(pointer, addr) is UpperBitsEncoding.SAME_AS_ADDRESS
        assert encodings(pointer, addr) == (True, True)

    def test_wide_literal_needs_lower_dies(self):
        wide = 0x0123_4567_89AB_CDEF
        assert encodings(wide, LINE_BASE + 24) == (False, False)
        dcache = run([store_op(0x100, LINE_BASE + 24, wide)]).activity.modules()
        assert dcache["l1_dcache"].per_die == [1, 1, 1, 1]

    def test_compressed_fraction(self):
        trace = [store_op(0x100, LINE_BASE, 1),
                 store_op(0x104, LINE_BASE + 8, 0xDEAD_BEEF_0001_0002)]
        assert pre(trace).dc_columns("two_bit")[1] == [True, False]
        assert run(trace).herding["herded::l1_dcache"] == 0.5

    def test_empty_fraction(self):
        result = run([alu(0x100, 1)])
        assert result.herding["dcache_herded_loads"] == 0.0
        assert "l1_dcache" not in result.activity.modules()
