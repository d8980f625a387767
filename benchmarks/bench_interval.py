"""Microbenchmark of the interval power/thermal co-simulation engine.

Two stages are timed on the fast-report workload:

* **extraction** — interval power traces for all six configurations of
  the reference benchmark (capture-armed columnar simulation, vectorized
  binning, per-interval power evaluation and rasterization), reported as
  intervals/s;
* **stepping** — a DTM policy sweep: the extracted traces drive K short
  transient runs per stack through ``run_many``, which pays one
  step-matrix factorization per stack and one multi-RHS backsolve per
  step for all K columns.  The sweep repeats until at least
  ``MIN_STEP_WINDOW_S`` seconds have elapsed, and steps/s is the total
  over that window, so one noisy pass on a shared host cannot sink it.
  Every repetition must reproduce the first one's peak series exactly.

Emits a ``BENCH_interval.json`` payload that CI records next to
``BENCH_report.json`` and gates against
``benchmarks/baselines/interval_engine.json`` (extraction and stepping
throughput).

Usage::

    PYTHONPATH=src python benchmarks/bench_interval.py [--out BENCH_interval.json]
"""

from __future__ import annotations

import argparse
import json
import time

from repro.experiments.context import (
    CONFIG_STACKS,
    ExperimentContext,
    ExperimentSettings,
)
from repro.experiments.interval import IntervalPowerSchedule, extract_interval_trace
from repro.thermal.transient import STEP_FACTORIZATION_STATS, TransientThermalSolver

#: Mirrors ``repro.cli.FAST_SETTINGS`` fidelity (single benchmark).
SETTINGS = ExperimentSettings(
    trace_length=8_000,
    warmup=2_500,
    benchmarks=("mpeg2",),
    thermal_grid=48,
)
INTERVAL_INSTS = 2_000
#: Sweep points (transient runs) per stack in the stepping passes.
RUNS_PER_STACK = 8
DT_S = 20e-3
DURATION_S = 0.4

#: The stepping sweep repeats until this much wall time has elapsed.
MIN_STEP_WINDOW_S = 5.0


def _schedule_sets(traces):
    """K throttle-policy variants per stack from one trace per stack."""
    per_stack = {}
    for label, trace in traces.items():
        per_stack.setdefault(CONFIG_STACKS[label], trace)
    return {
        stack: [
            IntervalPowerSchedule(trace, pass_s=0.5 + 0.1 * k)
            for k in range(RUNS_PER_STACK)
        ]
        for stack, trace in per_stack.items()
    }


def run(out_path: str) -> dict:
    context = ExperimentContext(SETTINGS, jobs=1, cache=None)
    context.power_model()  # calibrate outside the timed window

    t0 = time.perf_counter()
    traces = {
        label: extract_interval_trace(context, "mpeg2", label, INTERVAL_INSTS)
        for label in context.configs
    }
    t_extract = time.perf_counter() - t0
    intervals = sum(len(trace) for trace in traces.values())

    schedule_sets = _schedule_sets(traces)
    steps_per_run = int(round(DURATION_S / DT_S))
    steps = steps_per_run * RUNS_PER_STACK * len(schedule_sets)

    # Untimed warm-up: first-touch allocations (multi-RHS work arrays,
    # factor pages) land outside the timed window.
    for stack, schedules in schedule_sets.items():
        TransientThermalSolver(context.solver(stack), dt_s=DT_S).run_many(
            schedules[:2], 2 * DT_S)

    # Each pass: one factorization per stack, one multi-RHS backsolve
    # per step for all K sweep points.
    before = STEP_FACTORIZATION_STATS.factorizations
    passes = 0
    first = None
    t0 = time.perf_counter()
    while True:
        peaks = {
            stack: [result.peak_k for result in TransientThermalSolver(
                context.solver(stack), dt_s=DT_S
            ).run_many(schedules, DURATION_S)]
            for stack, schedules in schedule_sets.items()
        }
        passes += 1
        first = first or peaks
        assert peaks == first, "a repeated stepping pass diverged"
        t_step = time.perf_counter() - t0
        if t_step >= MIN_STEP_WINDOW_S:
            break
    step_factorizations = STEP_FACTORIZATION_STATS.factorizations - before

    payload = {
        "workload": {
            "benchmark": "mpeg2",
            "configs": len(traces),
            "interval_insts": INTERVAL_INSTS,
            "grid": SETTINGS.thermal_grid,
            "runs_per_stack": RUNS_PER_STACK,
            "dt_ms": DT_S * 1e3,
            "duration_s": DURATION_S,
        },
        "stage_seconds": {
            "extract": round(t_extract, 3),
            "step_batched": round(t_step, 3),
        },
        "step_passes": passes,
        "intervals": intervals,
        "intervals_per_second": round(intervals / t_extract, 3),
        "steps": steps * passes,
        "steps_per_second_batched": round(steps * passes / t_step, 1),
        "step_factorizations": step_factorizations,
        "peak_series_repeatable": True,
    }
    with open(out_path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_interval.json",
                        help="output JSON path (default: %(default)s)")
    args = parser.parse_args()
    payload = run(args.out)
    stages = payload["stage_seconds"]
    print(f"interval: {payload['intervals']} intervals extracted in "
          f"{stages['extract']}s ({payload['intervals_per_second']}/s)")
    print(f"stepping: {payload['steps']} steps in {payload['step_passes']} "
          f"passes, {stages['step_batched']}s "
          f"({payload['steps_per_second_batched']}/s)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
