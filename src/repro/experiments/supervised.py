"""Worker-side thermal solving for the parallel thermal engine.

:func:`solve_group_task` and :func:`transient_group_task` are the pool
entry points of the context's thermal-group dispatch
(:class:`repro.experiments.context.ThermalRun`), behind
``start_thermal``, ``solve_thermal_groups`` and ``transient_many``.
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.thermal.solver import FACTORIZATION_STATS, ThermalResult, ThermalSolver
from repro.thermal.transient import STEP_FACTORIZATION_STATS, TransientThermalSolver


def _timed_group(counter, field: str, work: Callable[[], object]):
    """The fault point (a no-op unless a token directory is armed), then
    ``work()``, returned with its wall-clock and the ``counter``
    factorizations it made as ``field``: worker counters are otherwise
    invisible across the process boundary."""
    from repro.experiments.faults import maybe_inject_thermal_fault

    maybe_inject_thermal_fault()
    start = time.perf_counter()
    before = counter.factorizations
    value = work()
    return value, {
        field: counter.factorizations - before,
        "seconds": round(time.perf_counter() - start, 3),
    }


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
    together with this task's factorization count and wall-clock.
    """
    return _timed_group(
        FACTORIZATION_STATS, "factorizations",
        lambda: ThermalSolver(stack, floorplan, nx, ny,
                              spreader_mm).solve_many(batches),
    )


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
    results, stats = _timed_group(
        STEP_FACTORIZATION_STATS, "step_factorizations",
        lambda: TransientThermalSolver(
            ThermalSolver(stack, floorplan, nx, ny, spreader_mm), dt_s=dt_s,
        ).run_many(schedules, duration_s, initial_k=initial_k),
    )
    return results, [s.stats() for s in schedules], stats
