"""The PC-indexed saturating-counter width predictor (Section 3), as the
timing core runs it on tiny traces."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.width_prediction import WidthPredictorStats
from repro.cpu.config import WidthPredictorKind
from repro.cpu.pipeline import TimingSimulator
from tests.tiny_traces import (
    WIDE,
    alu,
    base_config,
    gated,
    nops,
    occurrences,
    run,
    th_config,
)


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            TimingSimulator(th_config(width_predictor_entries=1000))
        # Only the dynamic predictor has a table.
        for kind in (WidthPredictorKind.STATIC, WidthPredictorKind.ORACLE):
            TimingSimulator(th_config(width_predictor_entries=1000,
                                      width_predictor_kind=kind))
        TimingSimulator(base_config(width_predictor_entries=1000))

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError, match="width_counter_bits"):
            TimingSimulator(th_config(width_counter_bits=0))

    def test_initial_prediction_is_full_width(self):
        """Initializing toward full width makes initial errors safe."""
        stats = run(occurrences([True])).width_stats
        assert stats.safe_mispredictions == 1
        assert stats.unsafe_mispredictions == 0


class TestTraining:
    def test_learns_low_width(self):
        assert gated(occurrences([True] * 3)) == [False, True, True]

    def test_learns_full_width(self):
        assert gated(occurrences([True, True] + [False] * 4)) == \
            [False, True, True, True, False, False]

    def test_hysteresis(self):
        """A single contrary outcome must not flip a saturated counter."""
        assert gated(occurrences([True] * 4 + [False, True]))[-1]

    def test_distinct_pcs_independent(self):
        trace = occurrences([True] * 4) + occurrences([True], pc=0x44) \
            + occurrences([True])
        assert gated(trace)[-2:] == [False, True]

    def test_aliasing_wraps_table(self):
        # PC 16 instructions later aliases to the same entry (pc >> 2 & 15).
        trace = occurrences([True] * 4, pc=0) + occurrences([True], pc=64)
        assert gated(trace, th_config(width_predictor_entries=16))[-1]
        assert not gated(trace)[-1]


class TestCorrection:
    def test_correction_forces_full_width(self):
        # After saturating low, one wide register read stalls the group
        # and pins the counter to full width: unlike a single contrary
        # outcome (the hysteresis case), it flips the next prediction.
        wide_read = alu(0x40, 1, srcs=(9,), values=(WIDE,))
        trace = occurrences([True] * 4) + [wide_read] + occurrences([True])
        result = run(trace)
        assert result.stalls.rf_group_stalls == 1
        assert gated(trace)[-1] is False


class TestStats:
    def test_accuracy_accounting(self):
        trace = occurrences([True, True, False]) + occurrences([False], pc=0x44)
        # safe, correct, unsafe, correct
        stats = run(trace).width_stats
        assert stats.predictions == 4
        assert stats.correct == 2
        assert stats.unsafe_mispredictions == 1
        assert stats.safe_mispredictions == 1
        assert stats.accuracy == 0.5
        assert stats.unsafe_rate == 0.25

    def test_empty_stats(self):
        assert WidthPredictorStats().accuracy == 0.0
        # A run with no integer-datapath op makes no prediction.
        stats = run(nops(0x1000, 4)).width_stats
        assert stats.predictions == 0
        assert stats.accuracy == 0.0
        assert stats.unsafe_rate == 0.0

    def test_observe_returns_unsafe(self):
        # Two-bit hysteresis: the saturated-low counter needs two contrary
        # outcomes before the prediction flips to full width.
        flags = gated(occurrences([True] * 4 + [False] * 3))
        assert flags[4:] == [True, True, False]

    @settings(max_examples=30, deadline=None)
    @given(st.booleans(), st.integers(min_value=1, max_value=3))
    def test_stable_behaviour_converges(self, constant, bits):
        """On a constant-width instruction the predictor converges."""
        flags = gated(occurrences([constant] * 9),
                      th_config(width_counter_bits=bits))
        assert flags[-1] == constant

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=10, max_size=100))
    def test_counts_always_consistent(self, history):
        flags = gated(occurrences(history))
        stats = run(occurrences(history)).width_stats
        assert stats.predictions == len(history)
        assert (stats.correct + stats.unsafe_mispredictions
                + stats.safe_mispredictions) == stats.predictions
        assert stats.correct == sum(f == h for f, h in zip(flags, history))
