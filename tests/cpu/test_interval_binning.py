"""Interval power extraction: vectorized binning vs aggregate counters.

The interval buckets are built from ``np.add.reduceat`` over the same
masks the aggregate activity derives from, plus diffs of cumulative
tally snapshots — so they must sum *exactly* to the aggregate
:class:`ActivityCounters` for every configuration, and arming the
capture must not perturb the simulation result at all.
"""

import pickle

import numpy as np
import pytest

from repro.cpu.pipeline import TimingSimulator
from repro.cpu.predecode import predecode
from repro.cpu.wavefront import IntervalCapture, build_interval_series
from repro.experiments.context import _all_configurations
from repro.workloads.suite import generate

LENGTH = 4_000
WARMUP = 1_000
INTERVAL = 600

CONFIGS = _all_configurations()


@pytest.fixture(scope="module")
def pre():
    return predecode(generate("mpeg2", length=LENGTH).compiled())


def _run(pre, config, capture=None):
    return TimingSimulator(config).run_compiled(
        pre, warmup=WARMUP, capture=capture
    )


@pytest.mark.parametrize("label", list(CONFIGS))
class TestIntervalBinning:
    def test_capture_does_not_perturb_result(self, pre, label):
        config = CONFIGS[label]
        baseline = _run(pre, config)
        armed = _run(pre, config, capture=IntervalCapture(INTERVAL))
        assert pickle.dumps(armed) == pickle.dumps(baseline)

    def test_buckets_sum_to_aggregate(self, pre, label):
        config = CONFIGS[label]
        capture = IntervalCapture(INTERVAL)
        result = _run(pre, config, capture=capture)
        series = build_interval_series(
            pre, config, WARMUP, True, capture, result.activity
        )
        assert len(series) == -(-(LENGTH - WARMUP) // INTERVAL)
        assert int(series.insts.sum()) == LENGTH - WARMUP
        assert int(series.cycles.sum()) == result.cycles
        aggregate = result.activity.modules()
        for counters in series.counters:
            assert list(counters.modules()) == list(aggregate)
        for name, module in aggregate.items():
            totals = [c.modules()[name].total for c in series.counters]
            tops = [c.modules()[name].top_only for c in series.counters]
            per_die = np.sum(
                [c.modules()[name].per_die for c in series.counters], axis=0
            )
            assert sum(totals) == module.total
            assert sum(tops) == module.top_only
            assert per_die.tolist() == module.per_die


def test_one_interval_equals_aggregate(pre):
    config = CONFIGS["3D"]
    capture = IntervalCapture(10**9)
    result = _run(pre, config, capture=capture)
    series = build_interval_series(
        pre, config, WARMUP, True, capture, result.activity
    )
    assert len(series) == 1
    assert pickle.dumps(series.counters[0]) == pickle.dumps(result.activity)


def test_capture_rejects_degenerate_windows():
    with pytest.raises(ValueError):
        IntervalCapture(0)
    capture = IntervalCapture(100)
    with pytest.raises(ValueError):
        capture.prepare(50, 50)
