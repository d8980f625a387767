"""Microbenchmark of the interval power/thermal co-simulation engine.

Two stages are timed on the fast-report workload:

* **extraction** — interval power traces for all six configurations of
  the reference benchmark (capture-armed columnar simulation, vectorized
  binning, per-interval power evaluation and rasterization), reported as
  intervals/s;
* **stepping** — a DTM policy sweep: the extracted traces drive K short
  transient runs per stack.  The batched engine (``run_many``) pays one
  step-matrix factorization per stack and one multi-RHS backsolve per
  step for all K columns; the scalar per-run loop (``run_reference``)
  runs each sweep point as a standalone transient, paying its own
  step-matrix factorization plus one backsolve per run per step.  Both
  are reported as steps/s.  Warm stepping-only passes (both paths
  reusing one already-factorized solver per stack, isolating pure
  multi-RHS amortization) are also recorded for transparency.

The batched peak-temperature series are asserted exactly equal to the
scalar ones, final layer temps equal to within SuperLU's blocked
multi-RHS backsolve rounding (column-order accumulation in the nrhs>1
kernel can differ from per-column solves by ~1e-13 K on large grids;
the deterministic small-grid workloads in
``tests/thermal/test_batched_transient.py`` pin exact equality).  The
batched/cold-scalar throughput ratio is asserted >= 3x.  Emits a
``BENCH_interval.json`` payload that CI records next to
``BENCH_report.json`` and gates against
``benchmarks/baselines/interval_engine.json`` (extraction and batched
stepping throughput; the speedup ratio is machine-independent and
asserted here, not gated there).

Usage::

    PYTHONPATH=src python benchmarks/bench_interval.py [--out BENCH_interval.json]
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

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

#: Tolerance for final layer temps between batched and per-column
#: backsolves: SuperLU's blocked nrhs>1 kernel reorders accumulation
#: relative to single-column solves (observed <= 2e-13 K at grid 48).
FINAL_TEMP_ATOL = 1e-9


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


def _check_identical(batched, scalar):
    worst = 0.0
    for stack, results in batched.items():
        for a, b in zip(results, scalar[stack]):
            assert a.times_s == b.times_s
            assert a.peak_k == b.peak_k, "batched peak series diverged"
            for x, y in zip(a.final_layer_temps, b.final_layer_temps):
                assert np.allclose(x, y, rtol=0.0, atol=FINAL_TEMP_ATOL), (
                    "batched final temps diverged beyond backsolve rounding"
                )
                worst = max(worst, float(np.abs(x - y).max()))
    return worst


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
    # factor pages) land outside the timed windows for both paths.
    for stack, schedules in schedule_sets.items():
        warm = TransientThermalSolver(context.solver(stack), dt_s=DT_S)
        warm.run_many(schedules[:2], 2 * DT_S)
        warm.run_reference(schedules[0], 2 * DT_S)

    # Batched engine: one factorization per stack, one multi-RHS
    # backsolve per step for all K sweep points.
    before = STEP_FACTORIZATION_STATS.factorizations
    t0 = time.perf_counter()
    batched = {
        stack: TransientThermalSolver(
            context.solver(stack), dt_s=DT_S
        ).run_many(schedules, DURATION_S)
        for stack, schedules in schedule_sets.items()
    }
    t_batched = time.perf_counter() - t0
    step_factorizations = STEP_FACTORIZATION_STATS.factorizations - before

    # Scalar per-run loop: each sweep point is a standalone transient
    # paying its own step-matrix factorization plus per-step backsolves.
    t0 = time.perf_counter()
    scalar = {}
    for stack, schedules in schedule_sets.items():
        runs = []
        for schedule in schedules:
            runs.append(TransientThermalSolver(
                context.solver(stack), dt_s=DT_S
            ).run_reference(schedule, DURATION_S))
        scalar[stack] = runs
    t_scalar = time.perf_counter() - t0

    # Warm stepping-only passes: both paths reuse one already-factorized
    # solver per stack, isolating the pure per-step multi-RHS
    # amortization from the factorization sharing — recorded for
    # transparency.
    warm_solvers = {
        stack: TransientThermalSolver(context.solver(stack), dt_s=DT_S)
        for stack in schedule_sets
    }
    t0 = time.perf_counter()
    for stack, schedules in schedule_sets.items():
        warm_solvers[stack].run_many(schedules, DURATION_S)
    t_batched_warm = time.perf_counter() - t0
    t0 = time.perf_counter()
    for stack, schedules in schedule_sets.items():
        for schedule in schedules:
            warm_solvers[stack].run_reference(schedule, DURATION_S)
    t_scalar_warm = time.perf_counter() - t0

    final_temp_diff = _check_identical(batched, scalar)

    speedup = t_scalar / t_batched
    assert speedup >= 3.0, (
        f"batched stepping only {speedup:.2f}x scalar (expected >= 3x)"
    )

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
            "step_batched": round(t_batched, 3),
            "step_scalar": round(t_scalar, 3),
            "step_batched_warm": round(t_batched_warm, 3),
            "step_scalar_warm": round(t_scalar_warm, 3),
        },
        "factorizations_in_window": {
            "batched": step_factorizations,
            "scalar": RUNS_PER_STACK * len(schedule_sets),
            "warm": 0,
        },
        "intervals": intervals,
        "intervals_per_second": round(intervals / t_extract, 3),
        "steps": steps,
        "steps_per_second_batched": round(steps / t_batched, 1),
        "steps_per_second_scalar": round(steps / t_scalar, 1),
        "steps_per_second_batched_warm": round(steps / t_batched_warm, 1),
        "steps_per_second_scalar_warm": round(steps / t_scalar_warm, 1),
        "batched_speedup": round(speedup, 2),
        "multi_rhs_speedup_warm": round(t_scalar_warm / t_batched_warm, 2),
        "step_factorizations": step_factorizations,
        "peak_series_identical": True,
        "final_temp_max_abs_diff_k": final_temp_diff,
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
    print(f"stepping: {payload['steps']} steps, batched {stages['step_batched']}s "
          f"vs per-run scalar {stages['step_scalar']}s "
          f"({payload['batched_speedup']}x; warm stepping-only "
          f"{stages['step_batched_warm']}s vs {stages['step_scalar_warm']}s, "
          f"{payload['multi_rhs_speedup_warm']}x)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
