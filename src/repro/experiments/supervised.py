"""Worker-side thermal solving for the parallel thermal engine.

SuperLU factorizations grow superlinearly with the grid: a huge sweep
configuration can exhaust memory and abort the interpreter, and unlike
simulation tasks the thermal solve historically ran *in the parent
process*, so one oversized factorization took the whole campaign down.

:func:`solve_group_task` is the worker entry point of
:meth:`repro.experiments.context.ExperimentContext.solve_thermal_groups`:
it rebuilds the solver from pure geometry data (a built solver holds an
unpicklable SuperLU handle), factorizes once, solves every right-hand
side of its geometry group, evicts the factorization it created, and
ships back the temperature arrays plus its factorization count.  The
same entry point serves two callers —
the geometry fan-out that parallelizes cold thermal stages across the
pool, and the supervised path for solves whose system exceeds
``REPRO_THERMAL_SUBPROC_CELLS`` unknowns, where a crash, OOM kill, or
hang in the subprocess costs one timeout and an in-process fallback
solve instead of the parent.  Solves are deterministic, so worker
results are bit-identical to in-process ones.

When the variable is unset, :func:`default_subproc_cells` supplies a
threshold calibrated to this machine's RAM (see its docstring for the
formula); setting it to ``0``/``off``/``no``/``false``/``none`` disables
supervision entirely, and a positive integer overrides the calibration.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.thermal.solver import (
    _FACTORIZATION_CACHE, FACTORIZATION_STATS, ThermalResult, ThermalSolver,
)
from repro.thermal.transient import (
    _STEP_CACHE, STEP_FACTORIZATION_STATS, TransientThermalSolver,
)

#: ``REPRO_THERMAL_SUBPROC_CELLS`` values that disable supervision.
DISABLED_VALUES = frozenset({"0", "off", "no", "false", "none"})

#: Measured SuperLU fill constant: the LU factors of the thermal
#: conductance matrix occupy about ``LU_FILL_BYTES * cells ** (4/3)``
#: bytes (12 bytes per stored nonzero; measured 952-3419 bytes/cell over
#: 4k-65k cell systems across the planar and 3D stacks, with the 4/3
#: exponent fitting the observed growth of fill-in with system size;
#: 100 covers the worst case, the 10-layer 3D stack).
LU_FILL_BYTES = 100.0

#: Fraction of physical RAM one in-process factorization may claim
#: before the solve is routed to a crash-isolated subprocess.
RAM_FRACTION = 0.25

#: Never supervise systems smaller than this: sub-65k-cell solves (all
#: default and fast-test grids) take milliseconds and cannot threaten
#: the parent even on tiny machines, so the subprocess round-trip would
#: be pure overhead.
MIN_SUBPROC_CELLS = 65_536

#: Threshold used when physical RAM cannot be queried (non-POSIX).
FALLBACK_SUBPROC_CELLS = 250_000


def physical_ram_bytes() -> Optional[int]:
    """Physical RAM in bytes, or ``None`` when unqueryable."""
    try:
        page = os.sysconf("SC_PAGE_SIZE")
        pages = os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    if page <= 0 or pages <= 0:
        return None
    return page * pages


def default_subproc_cells() -> int:
    """Calibrated default for ``REPRO_THERMAL_SUBPROC_CELLS``.

    Supervision pays a subprocess round-trip to protect the parent from
    an OOM abort, so the threshold is the system size whose factorization
    footprint reaches :data:`RAM_FRACTION` of physical RAM.  Inverting
    the measured footprint model ``bytes = LU_FILL_BYTES * cells**(4/3)``
    gives::

        cells = (RAM_FRACTION * ram_bytes / LU_FILL_BYTES) ** (3/4)

    clamped below by :data:`MIN_SUBPROC_CELLS`.  On a 4 GiB machine this
    is about 180k cells; on 128 GiB about 2.4M cells — the paper-default
    64x64 grids (16k-41k cells) always solve in-process.
    """
    ram = physical_ram_bytes()
    if ram is None:
        return FALLBACK_SUBPROC_CELLS
    cells = (RAM_FRACTION * ram / LU_FILL_BYTES) ** 0.75
    return max(int(cells), MIN_SUBPROC_CELLS)


@contextmanager
def _evict_task_factorizations():
    """Drop the steady and step LRU entries created inside the block.

    No later task in the same worker reads a pool task's entries: each
    dispatch forks a fresh pool and groups its tasks by matrix key, so
    a retained entry only pins its LU factors in the worker's memory.
    Entries the process already held on entry — such as ones inherited
    from the parent through fork — stay.
    """
    held = (set(_FACTORIZATION_CACHE), set(_STEP_CACHE))
    try:
        yield
    finally:
        for cache, before in zip((_FACTORIZATION_CACHE, _STEP_CACHE), held):
            for key in [key for key in cache if key not in before]:
                del cache[key]


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
    unpicklable SuperLU handle; the LRU entry its factorization lands in
    is evicted before returning.  Returns the temperature results
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
    with _evict_task_factorizations():
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
    lock-step through one multi-RHS step factorization (evicted, with
    the assembled matrix, before returning), and the task ships back
    its step-factorization count.  Schedules are pickled copies, so
    their accumulated stats (throttle duty counters) travel back
    explicitly as the second element.  Stepping is deterministic: worker
    results are bit-identical to the parent's inline path.
    """
    from repro.experiments.faults import maybe_inject_thermal_fault

    maybe_inject_thermal_fault()
    start = time.perf_counter()
    step_factorizations = STEP_FACTORIZATION_STATS.factorizations
    with _evict_task_factorizations():
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
