"""Worker-side thermal solving for the parallel thermal engine.

:func:`solve_group_task` and :func:`transient_group_task` are the pool
entry points of
:meth:`repro.experiments.context.ExperimentContext.solve_thermal_groups`
and :meth:`~repro.experiments.context.ExperimentContext.transient_many`.
Each rebuilds its solver from pure geometry data (a built solver holds
an unpicklable SuperLU handle), factorizes once, solves every
right-hand side of its group, and ships back the temperature arrays
plus its factorization count.  The solver is a local of the task, so
its LU factors are freed when the task returns: a worker holds at most
the factors of the task it is running.  Solves are deterministic, so
worker results are bit-identical to in-process ones.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.thermal.solver import FACTORIZATION_STATS, ThermalResult, ThermalSolver
from repro.thermal.transient import STEP_FACTORIZATION_STATS, TransientThermalSolver


def solve_group_task(
    stack,
    floorplan,
    nx: int,
    ny: int,
    spreader_mm: float,
    batches: Sequence[Sequence],
) -> Tuple[List[ThermalResult], Dict[str, float]]:
    """Worker entry point: solve one geometry group, report solve stats.

    The solver is reconstructed from its constructor arguments (geometry
    is pure data) rather than pickled, because a built solver holds an
    unpicklable SuperLU handle.  Returns the temperature results
    together with this task's factorization count and wall-clock, which
    the parent folds into ``ContextStats`` (worker counters are
    otherwise invisible across the process boundary).  The fault point
    mirrors the simulation workers' — no-op unless a token directory is
    armed.
    """
    from repro.experiments.faults import maybe_inject_thermal_fault

    maybe_inject_thermal_fault()
    start = time.perf_counter()
    factorizations = FACTORIZATION_STATS.factorizations
    solver = ThermalSolver(stack, floorplan, nx, ny, spreader_mm)
    results = solver.solve_many(batches)
    stats = {
        "factorizations": FACTORIZATION_STATS.factorizations - factorizations,
        "seconds": round(time.perf_counter() - start, 3),
    }
    return results, stats


def transient_group_task(
    stack,
    floorplan,
    nx: int,
    ny: int,
    spreader_mm: float,
    dt_s: float,
    schedules: Sequence,
    duration_s: float,
    initial_k: Optional[float],
) -> Tuple[List, List[Dict[str, float]], Dict[str, float]]:
    """Worker entry point: step one step-matrix group of transient runs.

    Same contract as :func:`solve_group_task` — the steady solver is
    rebuilt from pure geometry, every run in the group advances in
    lock-step through one multi-RHS step factorization, and the task
    ships back its step-factorization count.  Schedules are pickled
    copies, so their accumulated stats (throttle duty counters) travel
    back explicitly as the second element.  Stepping is deterministic:
    worker results are bit-identical to the parent's inline path.
    """
    from repro.experiments.faults import maybe_inject_thermal_fault

    maybe_inject_thermal_fault()
    start = time.perf_counter()
    step_factorizations = STEP_FACTORIZATION_STATS.factorizations
    solver = ThermalSolver(stack, floorplan, nx, ny, spreader_mm)
    transient = TransientThermalSolver(solver, dt_s=dt_s)
    results = transient.run_many(schedules, duration_s, initial_k=initial_k)
    stats = {
        "step_factorizations": (
            STEP_FACTORIZATION_STATS.factorizations - step_factorizations
        ),
        "seconds": round(time.perf_counter() - start, 3),
    }
    return results, [s.stats() for s in schedules], stats
