"""Microbenchmark of the thermal solve engine over the report geometry set.

Times the SuperLU-dominated thermal stage a cold ``repro report --fast``
pays: the two standard packaging geometries (planar, 3D stack) plus the
distinct sensitivity-sweep geometries, each factorized and solved once at
the fast-report grid.  Three passes are measured — serial in-process
(each solver factorizing cold), the parallel geometry fan-out across the
worker pool (each worker task factorizing its own geometry), and a warm
in-process rerun (backsubstitution only) — and the parallel results
are asserted bit-identical to the serial ones.  Emits a
``BENCH_thermal.json`` payload that CI records next to
``BENCH_report.json`` and gates against
``benchmarks/baselines/thermal_solve.json`` (serial factorization
throughput, the machine-size-independent metric; the parallel speedup is
recorded for trend lines but not gated, because it scales with cores).

Usage::

    PYTHONPATH=src python benchmarks/bench_thermal.py [--out BENCH_thermal.json] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.experiments.context import CORE_COUNT, ExperimentContext
from repro.experiments.sensitivity import SWEEPS, _stack_with
from repro.floorplan import planar_floorplan, stacked_floorplan
from repro.thermal.solver import FACTORIZATION_STATS, ThermalSolver
from repro.thermal.stack import planar_stack, stacked_3d_stack

#: The fast-report thermal resolution (mirrors ``repro.cli.FAST_SETTINGS``).
GRID = 48

#: Per-cell power density of the synthetic uniform workload, W.
CELL_WATTS = 0.02


def _geometry_set():
    """One solver per distinct geometry the fast report solves."""
    plan2d = planar_floorplan(CORE_COUNT)
    plan3d = stacked_floorplan(CORE_COUNT)
    solvers = [
        ThermalSolver(planar_stack(), plan2d, GRID, GRID),
        ThermalSolver(stacked_3d_stack(), plan3d, GRID, GRID),
    ]
    seen = {solver.matrix_key() for solver in solvers}
    for parameter, _nominal, values in SWEEPS:
        for value in values:
            convection = value if parameter == "convection K/W" else 0.17
            tim = value if parameter == "TIM W/mK" else 50.0
            copper = value if parameter == "via copper fraction" else 0.25
            solver = ThermalSolver(_stack_with(convection, tim, copper),
                                   plan3d, GRID, GRID)
            if solver.matrix_key() in seen:
                continue
            seen.add(solver.matrix_key())
            solvers.append(solver)
    return solvers


def _grids(solver: ThermalSolver):
    ny, nx = solver.chip_grid_shape()
    return [np.full((ny, nx), CELL_WATTS) for _ in range(solver.floorplan.dies)]


def _same(a, b) -> bool:
    return a.block_peak == b.block_peak and all(
        np.array_equal(x, y) for x, y in zip(a.layer_temps, b.layer_temps)
    )


def run(out_path: str, jobs: int) -> dict:
    solvers = _geometry_set()
    groups = [(solver, [_grids(solver)]) for solver in solvers]
    cells = [
        len(solver.stack.layers) * solver.ny * solver.nx for solver in solvers
    ]

    before = FACTORIZATION_STATS.factorizations
    t0 = time.perf_counter()
    serial = [solver.solve_many(batches) for solver, batches in groups]
    t_serial = time.perf_counter() - t0
    factorizations = FACTORIZATION_STATS.factorizations - before

    t0 = time.perf_counter()
    for solver, batches in groups:
        solver.solve_many(batches)
    t_warm = time.perf_counter() - t0

    context = ExperimentContext(jobs=jobs, cache=None)
    t0 = time.perf_counter()
    parallel = context.solve_thermal_groups(groups)
    t_parallel = time.perf_counter() - t0

    for serial_group, parallel_group in zip(serial, parallel):
        for a, b in zip(serial_group, parallel_group):
            assert _same(a, b), "parallel thermal result diverged from serial"

    payload = {
        "workload": {
            "geometries": len(solvers),
            "grid": GRID,
            "cells_min": min(cells),
            "cells_max": max(cells),
            "rhs_per_geometry": 1,
            "jobs": context.jobs,
        },
        "stage_seconds": {
            "serial_cold": round(t_serial, 3),
            "parallel_cold": round(t_parallel, 3),
            "serial_warm": round(t_warm, 3),
        },
        "factorizations": factorizations,
        "factorizations_per_second": round(factorizations / t_serial, 3),
        "parallel_speedup": round(t_serial / t_parallel, 2),
        "worker_groups": context.stats.thermal_worker_groups,
        "worker_factorizations": context.stats.thermal_worker_factorizations,
        "byte_identical": True,
    }
    with open(out_path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_thermal.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the parallel pass "
                             "(default: REPRO_JOBS or the CPU count)")
    args = parser.parse_args()
    payload = run(args.out, args.jobs)
    stages = payload["stage_seconds"]
    print(f"thermal: {payload['workload']['geometries']} geometries, "
          f"serial {stages['serial_cold']}s  "
          f"parallel {stages['parallel_cold']}s "
          f"({payload['parallel_speedup']}x on {payload['workload']['jobs']} jobs)  "
          f"warm {stages['serial_warm']}s")
    print(f"{payload['factorizations_per_second']} factorizations/s serial, "
          f"parallel results bit-identical")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
