"""Shared state for the benchmark harness.

One :class:`ExperimentContext` is shared by every benchmark so that
simulation runs are performed once per session regardless of how many
figures consume them.  ``REPRO_BENCH_FAST=1`` shrinks the workload set
for quick shape checks.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.context import ExperimentContext, ExperimentSettings

FULL_SETTINGS = ExperimentSettings(
    trace_length=20_000,
    warmup=6_000,
    benchmarks=None,        # the whole 24-benchmark suite
    thermal_grid=64,
)

FAST_SETTINGS = ExperimentSettings(
    trace_length=8_000,
    warmup=2_500,
    benchmarks=("mpeg2", "mcf", "susan", "yacr2", "swim", "adpcm"),
    thermal_grid=48,
)


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    fast = os.environ.get("REPRO_BENCH_FAST") == "1"
    return ExperimentContext(FAST_SETTINGS if fast else FULL_SETTINGS)


def emit(title: str, body: str) -> None:
    """Print a paper-style results block (visible with pytest -s)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n", flush=True)
