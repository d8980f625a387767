"""Width-predictor saturating-counter edge cases.

The timing core keeps the predictor's counters inline (table reads,
saturating increments/decrements, the in-flight correction that pins an
entry to max).  These tests pin the counter state machine at its
boundaries — saturation at both ends, the threshold flip, index aliasing
in tiny tables — check the core's predictions against a reference
counter table on a random stream with corrections, and check that stats
reset at warmup for every predictor kind.  The core's tiny-table runs on
real traces are pinned by golden digests in ``test_core_digest.py``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cpu.config import WidthPredictorKind
from repro.cpu.pipeline import TimingSimulator
from repro.cpu.predecode import predecode
from repro.experiments.context import _all_configurations
from repro.isa.values import is_low_width
from repro.workloads.suite import generate
from tests.tiny_traces import WIDE, alu, gated, occurrences, run, th_config


def tiny(bits=2):
    return th_config(width_predictor_entries=4, width_counter_bits=bits)


class TestCounterSaturation:
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_saturates_at_max(self, bits):
        max_count = (1 << bits) - 1
        threshold = 1 << (bits - 1)
        # From max, exactly max - threshold + 1 low outcomes flip the
        # prediction; a counter that kept counting up would need more.
        lows = max_count - threshold + 1
        flags = gated(occurrences([False] * 3 * max_count + [True] * (lows + 1)),
                      tiny(bits))
        assert flags[-(lows + 1):] == [False] * lows + [True]

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_saturates_at_zero(self, bits):
        threshold = 1 << (bits - 1)
        flags = gated(occurrences([True] * 3 * (1 << bits) + [False] * (threshold + 1)),
                      tiny(bits))
        assert flags[-(threshold + 1):] == [True] * threshold + [False]

    def test_threshold_flip_is_exact(self):
        """With 2-bit counters the prediction flips at exactly 2 -> 1."""
        # Initialized to the threshold: weakly full width.
        assert gated(occurrences([True, False, True]), tiny()) == [False, True, False]

    def test_correction_pins_to_max(self):
        wide_read = alu(0x40, 1, srcs=(9,), values=(WIDE,))
        flags = gated(occurrences([True] * 4) + [wide_read]
                      + occurrences([True] * 3), tiny())
        # Pinned to 3, the counter needs two low outcomes to predict low.
        assert flags[-3:] == [False, False, True]

    def test_index_aliasing_in_tiny_table(self):
        """PCs 4 entries apart share a counter (the wraparound case)."""
        trace = occurrences([True]) + occurrences([True], pc=0x40 + 4 * 4)
        # The second PC sees the first one's update on the shared counter.
        assert gated(trace, tiny()) == [False, True]
        assert gated(trace) == [False, False]


class TestInlinedCounterEquivalence:
    """The core's predictions == a reference counter table, step by step."""

    @pytest.mark.parametrize("bits", [1, 2])
    def test_random_stream_with_corrections(self, bits):
        table_size = 8
        table = [1 << (bits - 1)] * table_size
        threshold = 1 << (bits - 1)
        max_count = (1 << bits) - 1
        mask = table_size - 1

        rng = random.Random(1234)
        trace, expected_gated, expected_stalls = [], [], 0
        for i in range(2_000):
            pc = rng.randrange(0, 64) * 4
            operand = 1 if rng.random() < 0.9 else WIDE
            result = 1 if rng.random() < 0.5 else WIDE
            # Each op reads its own never-written register, so the read
            # comes from the register file and its memoization bit is the
            # operand's own width.
            trace.append(alu(pc, result, srcs=(100 + i,), values=(operand,)))
            index = (pc >> 2) & mask
            predicted = table[index] < threshold
            if predicted and not is_low_width(operand):
                # The register file's in-flight correction path.
                expected_stalls += 1
                table[index] = max_count
                predicted = False
            expected_gated.append(predicted)
            actual = is_low_width(operand) and is_low_width(result)
            counter = table[index]
            if actual:
                if counter > 0:
                    table[index] = counter - 1
            elif counter < max_count:
                table[index] = counter + 1

        config = th_config(width_predictor_entries=table_size,
                           width_counter_bits=bits)
        assert gated(trace, config) == expected_gated
        assert run(trace, config).stalls.rf_group_stalls == expected_stalls


class TestPerKindResetAtWarmup:
    """Across the warmup boundary, stats reset but predictor *state*
    (counters, static overrides) persists — per kind."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate("yacr2", length=4_000)

    @pytest.mark.parametrize("kind", list(WidthPredictorKind))
    def test_stats_cover_post_warmup_only(self, kind, trace):
        config = dataclasses.replace(
            _all_configurations()["TH"], width_predictor_kind=kind
        )
        compiled = trace.compiled()
        pre = predecode(compiled)
        full = TimingSimulator(config).run_compiled(pre, warmup=0)
        warmed = TimingSimulator(config).run_compiled(
            pre, warmup=2_000
        )
        assert full.width_stats.predictions > warmed.width_stats.predictions
        assert warmed.width_stats.predictions == sum(
            1 for i in range(2_000, pre.n) if pre.is_intdp[i]
        )
