"""Phase behaviour and SimPoint-style representative sampling.

The paper picks simulation points with SimPoint 2.0: profile a long run
into fixed-size intervals, describe each interval by its basic-block
vector (BBV), cluster the vectors, and simulate one representative
interval per cluster weighted by cluster size.  This module implements
that pipeline over our traces:

* :func:`basic_block_vectors` — per-interval execution-frequency vectors
  keyed by branch-delimited basic blocks;
* :class:`KMeans` — a small, deterministic k-means (no sklearn offline);
* :func:`choose_simpoints` — cluster the BBVs and return the
  representative interval of each cluster plus its weight;
* :func:`sample_trace` — stitch the representative intervals into a
  reduced trace whose statistics approximate the full run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.isa.compiled import IS_CONTROL, CompiledTrace


def basic_block_vectors(
    trace: CompiledTrace,
    interval: int = 2_000,
) -> Tuple[np.ndarray, List[int]]:
    """Per-interval basic-block execution vectors.

    A basic block is identified by its leader PC (the target of a control
    transfer or the instruction after one), read from the compiled rows.
    Returns the (intervals x blocks) matrix, L1-normalized per row, and
    the interval start indices.
    """
    if interval < 1:
        raise ValueError(f"interval must be positive, got {interval}")
    block_ids: Dict[int, int] = {}
    rows: List[Dict[int, int]] = []
    current: Dict[int, int] = {}
    starts: List[int] = [0]

    array = trace.array
    is_control = IS_CONTROL[array["op"]]
    leader = True
    count_in_interval = 0
    for index, (pc, control) in enumerate(
        zip(array["pc"].tolist(), is_control.tolist())
    ):
        if leader:
            block = block_ids.setdefault(pc, len(block_ids))
            current[block] = current.get(block, 0) + 1
        leader = control
        count_in_interval += 1
        if count_in_interval >= interval:
            rows.append(current)
            current = {}
            count_in_interval = 0
            if index + 1 < len(array):
                starts.append(index + 1)
    if current:
        rows.append(current)

    matrix = np.zeros((len(rows), max(len(block_ids), 1)))
    for row_index, row in enumerate(rows):
        for block, count in row.items():
            matrix[row_index, block] = count
        total = matrix[row_index].sum()
        if total:
            matrix[row_index] /= total
    return matrix, starts[: len(rows)]


class KMeans:
    """Deterministic k-means with k-means++-style seeding."""

    def __init__(self, k: int, seed: int = 0, max_iters: int = 50):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self.max_iters = max_iters
        self.centroids: np.ndarray = np.empty(0)
        self.labels: np.ndarray = np.empty(0, dtype=int)

    def fit(self, data: np.ndarray) -> "KMeans":
        n = data.shape[0]
        if n == 0:
            raise ValueError("cannot cluster an empty matrix")
        k = min(self.k, n)
        rng = random.Random(self.seed)

        # k-means++ seeding.
        centroids = [data[rng.randrange(n)]]
        while len(centroids) < k:
            distances = np.min(
                [((data - c) ** 2).sum(axis=1) for c in centroids], axis=0
            )
            total = distances.sum()
            if total <= 0:
                centroids.append(data[rng.randrange(n)])
                continue
            pick = rng.random() * total
            cumulative = np.cumsum(distances)
            centroids.append(data[int(np.searchsorted(cumulative, pick))])
        centers = np.array(centroids)

        labels = np.zeros(n, dtype=int)
        for _ in range(self.max_iters):
            distances = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = distances.argmin(axis=1)
            if (new_labels == labels).all() and _ > 0:
                break
            labels = new_labels
            for cluster in range(k):
                members = data[labels == cluster]
                if len(members):
                    centers[cluster] = members.mean(axis=0)
        self.centroids = centers
        self.labels = labels
        return self


@dataclass(frozen=True)
class SimPoint:
    """One representative interval."""

    interval_index: int
    start_instruction: int
    weight: float


def choose_simpoints(
    trace: CompiledTrace,
    interval: int = 2_000,
    max_clusters: int = 4,
    seed: int = 0,
) -> List[SimPoint]:
    """Cluster the trace's BBVs and pick one representative per cluster."""
    matrix, starts = basic_block_vectors(trace, interval=interval)
    model = KMeans(k=max_clusters, seed=seed).fit(matrix)
    points: List[SimPoint] = []
    n = matrix.shape[0]
    for cluster in range(model.centroids.shape[0]):
        members = np.flatnonzero(model.labels == cluster)
        if not len(members):
            continue
        centroid = model.centroids[cluster]
        distances = ((matrix[members] - centroid) ** 2).sum(axis=1)
        representative = int(members[distances.argmin()])
        points.append(
            SimPoint(
                interval_index=representative,
                start_instruction=starts[representative],
                weight=len(members) / n,
            )
        )
    points.sort(key=lambda p: p.interval_index)
    return points


def sample_trace(
    trace: CompiledTrace,
    points: Sequence[SimPoint],
    interval: int = 2_000,
) -> CompiledTrace:
    """Concatenate the representative intervals into a reduced trace.

    The sample is built from slices of the trace's rows.
    """
    if not points:
        raise ValueError("need at least one simpoint")
    rows = trace.array
    array = np.concatenate([
        rows[p.start_instruction:p.start_instruction + interval] for p in points
    ])
    return CompiledTrace(
        f"{trace.name}@simpoints", trace.benchmark_class, trace.seed, array
    )


def weighted_metric(points: Sequence[SimPoint], values: Sequence[float]) -> float:
    """SimPoint-weighted combination of per-interval metric values."""
    if len(points) != len(values):
        raise ValueError("points and values must align")
    total_weight = sum(p.weight for p in points)
    if total_weight <= 0:
        return 0.0
    return sum(p.weight * v for p, v in zip(points, values)) / total_weight
