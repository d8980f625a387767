"""Tests for the transient step-response experiment."""

import pickle

import pytest

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.transient_response import run_transient_response

TINY = ExperimentSettings(
    trace_length=4_000,
    warmup=1_200,
    benchmarks=("mpeg2",),
    thermal_grid=32,
)


@pytest.fixture(scope="module")
def result():
    context = ExperimentContext(TINY)
    return run_transient_response(context, dt_s=50e-3, duration_s=12.0)


class TestTransientResponse:
    def test_both_reach_90pct(self, result):
        assert result.planar.time_to_90pct_s is not None
        assert result.stacked.time_to_90pct_s is not None

    def test_3d_heats_faster(self, result):
        """Thinned dies carry less heat capacity per watt."""
        assert result.stacked.time_to_90pct_s < result.planar.time_to_90pct_s

    def test_steady_peaks_sane(self, result):
        assert 330.0 < result.planar.steady_peak_k < 420.0
        assert result.stacked.steady_peak_k > result.planar.steady_peak_k - 5.0

    def test_format(self, result):
        text = result.format()
        assert "step response" in text
        assert "ms" in text


def test_pooled_steps_match_inline():
    """The two step groups give the same answer inline and on a pool."""
    outs = [
        run_transient_response(
            ExperimentContext(TINY, jobs=jobs, cache=None),
            dt_s=50e-3, duration_s=4.0,
        )
        for jobs in (1, 2)
    ]
    assert pickle.dumps(outs[0]) == pickle.dumps(outs[1])
    assert outs[0].format() == outs[1].format()
