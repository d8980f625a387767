"""Width-predictor saturating-counter edge cases.

The timing core inlines the predictor's counter arithmetic (table
reads, saturating increments/decrements, the in-flight correction that
pins an entry to max) instead of calling the model.  These tests pin the
counter state machine at its boundaries — saturation at both ends, the
threshold flip, index aliasing in tiny tables — check that the inlined
update stream stays in lock-step with the model, and that stats reset at
warmup for every predictor kind.  The core's tiny-table runs are pinned
by golden digests in ``test_core_digest.py``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.width_prediction import WidthPredictor
from repro.cpu.config import WidthPredictorKind
from repro.cpu.pipeline import TimingSimulator
from repro.cpu.predecode import predecode
from repro.experiments.context import _all_configurations
from repro.workloads.suite import generate


class TestCounterSaturation:
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_saturates_at_max(self, bits):
        predictor = WidthPredictor(table_size=4, counter_bits=bits)
        max_count = (1 << bits) - 1
        for _ in range(3 * max_count):
            predictor.record_and_train(0x40, predicted_low=False, actual_low=False)
        assert predictor._table[predictor._index(0x40)] == max_count
        assert not predictor.predict_low_width(0x40)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_saturates_at_zero(self, bits):
        predictor = WidthPredictor(table_size=4, counter_bits=bits)
        for _ in range(3 * (1 << bits)):
            predictor.record_and_train(0x40, predicted_low=True, actual_low=True)
        assert predictor._table[predictor._index(0x40)] == 0
        assert predictor.predict_low_width(0x40)

    def test_threshold_flip_is_exact(self):
        """With 2-bit counters the prediction flips at exactly 2 -> 1."""
        predictor = WidthPredictor(table_size=4, counter_bits=2)
        # Initialized to the threshold: weakly full width.
        assert not predictor.predict_low_width(0x40)
        predictor.record_and_train(0x40, predicted_low=False, actual_low=True)
        assert predictor.predict_low_width(0x40)
        predictor.record_and_train(0x40, predicted_low=True, actual_low=False)
        assert not predictor.predict_low_width(0x40)

    def test_correction_pins_to_max(self):
        predictor = WidthPredictor(table_size=4, counter_bits=2)
        for _ in range(4):
            predictor.record_and_train(0x40, predicted_low=False, actual_low=True)
        assert predictor.predict_low_width(0x40)
        predictor.correct_prediction(0x40)
        assert predictor._table[predictor._index(0x40)] == predictor._max_count
        assert not predictor.predict_low_width(0x40)

    def test_index_aliasing_in_tiny_table(self):
        """PCs 4 entries apart share a counter (the wraparound case)."""
        predictor = WidthPredictor(table_size=4, counter_bits=2)
        assert predictor._index(0x40) == predictor._index(0x40 + 4 * 4)
        predictor.record_and_train(0x40, predicted_low=False, actual_low=True)
        predictor.record_and_train(0x40 + 16, predicted_low=False, actual_low=True)
        # Both updates landed on one counter: threshold(2) - 2 == 0.
        assert predictor._table[predictor._index(0x40)] == 0


class TestInlinedCounterEquivalence:
    """The wavefront loop's inlined arithmetic == the model, step by step."""

    @pytest.mark.parametrize("bits", [1, 2])
    def test_random_stream_with_corrections(self, bits):
        table_size = 8
        model = WidthPredictor(table_size=table_size, counter_bits=bits)
        # The inlined mirror, exactly as run_compiled maintains it.
        table = [1 << (bits - 1)] * table_size
        threshold = 1 << (bits - 1)
        max_count = (1 << bits) - 1
        mask = table_size - 1

        rng = random.Random(1234)
        for _ in range(2_000):
            pc = rng.randrange(0, 64) * 4
            actual = rng.random() < 0.5
            index = (pc >> 2) & mask

            predicted_model = model.predict_low_width(pc)
            predicted_inline = table[index] < threshold
            assert predicted_inline == predicted_model

            if predicted_inline and rng.random() < 0.1:
                # The register file's in-flight correction path.
                model.correct_prediction(pc)
                table[index] = max_count

            model.record_and_train(pc, predicted_model, actual)
            counter = table[index]
            if actual:
                if counter > 0:
                    table[index] = counter - 1
            elif counter < max_count:
                table[index] = counter + 1

            assert table == model._table


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
