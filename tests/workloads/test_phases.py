"""Tests for BBV profiling, k-means, and SimPoint sampling."""

import numpy as np
import pytest

from repro.isa.compiled import compile_trace
from repro.workloads.phases import (
    KMeans,
    basic_block_vectors,
    choose_simpoints,
    sample_trace,
    weighted_metric,
    SimPoint,
)
from repro.workloads.suite import generate
from repro.workloads.validation import TraceStats


@pytest.fixture(scope="module")
def trace():
    return generate("gcc", length=12_000)


class TestBBV:
    def test_shape(self, trace):
        matrix, starts = basic_block_vectors(trace, interval=2000)
        assert matrix.shape[0] == len(starts) == 6
        assert matrix.shape[1] > 10  # many distinct blocks

    def test_rows_l1_normalized(self, trace):
        matrix, _ = basic_block_vectors(trace, interval=2000)
        sums = matrix.sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0)

    def test_interval_starts_spacing(self, trace):
        _, starts = basic_block_vectors(trace, interval=3000)
        assert starts == [0, 3000, 6000, 9000]

    def test_rejects_bad_interval(self, trace):
        with pytest.raises(ValueError):
            basic_block_vectors(trace, interval=0)


class TestKMeans:
    def test_separates_obvious_clusters(self):
        data = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        model = KMeans(k=2, seed=1).fit(data)
        assert model.labels[0] == model.labels[1]
        assert model.labels[2] == model.labels[3]
        assert model.labels[0] != model.labels[2]

    def test_k_capped_at_n(self):
        data = np.array([[1.0], [2.0]])
        model = KMeans(k=5, seed=1).fit(data)
        assert model.centroids.shape[0] == 2

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        data = rng.random((30, 4))
        a = KMeans(k=3, seed=7).fit(data)
        b = KMeans(k=3, seed=7).fit(data)
        assert (a.labels == b.labels).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KMeans(k=2).fit(np.empty((0, 3)))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KMeans(k=0)


class TestSimPoints:
    def test_weights_sum_to_one(self, trace):
        points = choose_simpoints(trace, interval=2000, max_clusters=3)
        assert sum(p.weight for p in points) == pytest.approx(1.0)

    def test_points_sorted_and_in_range(self, trace):
        points = choose_simpoints(trace, interval=2000, max_clusters=3)
        indices = [p.interval_index for p in points]
        assert indices == sorted(indices)
        assert all(0 <= p.start_instruction < len(trace) for p in points)

    def test_sample_trace_length(self, trace):
        points = choose_simpoints(trace, interval=2000, max_clusters=3)
        sampled = sample_trace(trace, points, interval=2000)
        assert len(sampled) == 2000 * len(points)

    def test_sample_preserves_statistics(self, trace):
        """The reduced trace approximates the full trace's width profile."""
        points = choose_simpoints(trace, interval=2000, max_clusters=4)
        sampled = sample_trace(trace, points, interval=2000)
        full = TraceStats.from_trace(trace).low_width_result_fraction
        reduced = TraceStats.from_trace(sampled).low_width_result_fraction
        assert abs(full - reduced) < 0.08

    def test_compiled_and_list_sources_sample_alike(self, trace):
        """A trace packed from a list of rows samples like the
        emulator's own array."""
        points = choose_simpoints(trace, interval=2000, max_clusters=3)
        listed = compile_trace(trace.name, trace.array.tolist())
        assert (sample_trace(listed, points, interval=2000).array.tobytes()
                == sample_trace(trace, points, interval=2000).array.tobytes())

    def test_sample_requires_points(self, trace):
        with pytest.raises(ValueError):
            sample_trace(trace, [])

    def test_weighted_metric(self):
        points = [
            SimPoint(interval_index=0, start_instruction=0, weight=0.75),
            SimPoint(interval_index=1, start_instruction=100, weight=0.25),
        ]
        assert weighted_metric(points, [1.0, 2.0]) == pytest.approx(1.25)

    def test_weighted_metric_validates(self):
        points = [SimPoint(0, 0, 1.0)]
        with pytest.raises(ValueError):
            weighted_metric(points, [1.0, 2.0])
