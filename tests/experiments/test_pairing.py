"""Tests for the heterogeneous core-pairing experiment."""

import pytest

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.pairing import run_pairing

TINY = ExperimentSettings(
    trace_length=5_000,
    warmup=1_500,
    benchmarks=("mpeg2", "mcf"),
    thermal_grid=36,
)


@pytest.fixture(scope="module")
def result():
    return run_pairing(ExperimentContext(TINY))


class TestPairing:
    def test_three_pairings(self, result):
        assert len(result.points) == 3

    def test_hot_hot_is_hottest(self, result):
        pairs = result.by_pair()
        assert pairs[("mpeg2", "mpeg2")].peak_k >= pairs[("mpeg2", "mcf")].peak_k
        assert pairs[("mpeg2", "mcf")].peak_k >= pairs[("mcf", "mcf")].peak_k

    def test_mixing_preserves_some_throughput(self, result):
        pairs = result.by_pair()
        mixed = pairs[("mpeg2", "mcf")].throughput_ipns
        assert (pairs[("mcf", "mcf")].throughput_ipns
                < mixed
                < pairs[("mpeg2", "mpeg2")].throughput_ipns)

    def test_power_ordering_follows_activity(self, result):
        pairs = result.by_pair()
        assert (pairs[("mpeg2", "mpeg2")].chip_watts
                > pairs[("mpeg2", "mcf")].chip_watts
                > pairs[("mcf", "mcf")].chip_watts)

    def test_format(self, result):
        assert "core pairing" in result.format()
