"""Transient thermal solver (implicit Euler over the grid model).

HotSpot offers both steady-state and transient analysis; the paper's
results are steady state, but transient behaviour matters for herding's
headroom claims (how fast a hotspot forms when activity migrates).  The
transient solver reuses the steady solver's conductance matrix ``G`` and
adds per-cell heat capacities ``C``:

    C dT/dt = -G T + P(t)  ->  (C/dt + G) T_{n+1} = (C/dt) T_n + P_{n+1}

Implicit Euler is unconditionally stable, so time steps can span
milliseconds.  Each :class:`TransientThermalSolver` LU-factorizes its
step matrix ``(C/dt + G)`` once, at construction, and
:meth:`~TransientThermalSolver.run_many` steps K runs in lock-step
through those factors: each step scatters every run's power through the
steady solver's chip-cell indices into one ``(n, K)`` right-hand-side
matrix, and SuperLU back-substitutes all K columns in one call.  Each
run's power comes from a :class:`PowerSchedule`.

RHS assembly is column by column, so a run's result does not depend on
the batch it steps in, up to SuperLU's blocked multi-RHS kernel: on
large grids it may reorder the back-substitution's accumulation
relative to a one-column solve, at the ~1e-13 K level (1.1e-13 K on
the 3D stack at the report's grid 48).  ``transient_key`` ignores the
batch, so a cached run may come from another batch size.
``tests/thermal/test_batched_transient.py`` pins batching invariance
byte for byte at grid 20 and within 1e-12 K at grid 48, on both
stacks, and checks one step against an independently assembled
implicit-Euler system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.thermal.solver import FactorizationStats, ThermalSolver, _factorize

#: Bump when the integration scheme changes; part of every persistent
#: transient-run cache key.
TRANSIENT_MODEL_VERSION = 1

#: Step-matrix factorizations in this process.
STEP_FACTORIZATION_STATS = FactorizationStats()


def step_matrix_key(steady: ThermalSolver, dt_s: float) -> Tuple:
    """The identity of a (geometry, capacities, dt) step matrix.

    Pure — does not build or factorize anything, so dispatchers can group
    runs by step matrix before any solver exists, and step each group
    through one factorization.
    """
    return (
        steady.matrix_key(),
        tuple(
            layer.material.heat_capacity_j_m3k
            for layer in steady.stack.layers
        ),
        float(dt_s),
    )


class PowerSchedule:
    """Power-versus-time input for a transient run.

    Subclasses implement :meth:`power_grids`; instances must be picklable
    so a whole group of schedules can ship to a pool worker.  The
    ``prev_peak_k`` argument enables temperature-reactive schedules
    (thermal throttling): it is the peak die temperature after the
    previous accepted step (the initial temperature before the first).
    """

    def power_grids(self, t_s: float, prev_peak_k: float) -> Sequence[np.ndarray]:
        raise NotImplementedError

    def stats(self) -> Dict[str, float]:
        """Schedule-side counters accumulated during a run (may be empty)."""
        return {}

    def cache_token(self) -> Optional[str]:
        """A string that determines every :meth:`power_grids` answer and
        the :meth:`stats` a run accumulates from the schedule's current
        state, or ``None`` (the default) when runs driven by this
        schedule must not be persisted.  Transient runs whose schedule
        has a token are content-addressed in the result cache
        (:func:`repro.experiments.cache.transient_key`)."""
        return None


class ConstantPower(PowerSchedule):
    """The same per-die power grids at every step (a power step from
    the initial temperature)."""

    def __init__(self, grids: Sequence[np.ndarray]):
        self.grids = grids

    def power_grids(self, t_s: float, prev_peak_k: float) -> Sequence[np.ndarray]:
        return self.grids


@dataclass
class TransientResult:
    """Temperature evolution over the integration window."""

    times_s: List[float]
    #: peak die temperature at each time step
    peak_k: List[float]
    #: final full per-layer temperature grids
    final_layer_temps: List[np.ndarray]

    @property
    def final_peak(self) -> float:
        return self.peak_k[-1] if self.peak_k else 0.0

    def time_to_reach(self, threshold_k: float) -> Optional[float]:
        """First time the peak crosses ``threshold_k`` (None if never)."""
        peaks = np.asarray(self.peak_k)
        hits = np.nonzero(peaks >= threshold_k)[0]
        if hits.size == 0:
            return None
        return self.times_s[int(hits[0])]


class TransientThermalSolver:
    """Implicit-Euler transient solver sharing a ThermalSolver's geometry."""

    def __init__(self, steady: ThermalSolver, dt_s: float = 1e-3):
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        self.steady = steady
        self.dt_s = dt_s
        steady._bind()  # assembled G only; the step matrix is factorized below
        self._capacity = self._cell_capacities()
        self._cap_over_dt = self._capacity / dt_s
        from scipy.sparse import coo_matrix

        n = len(self._capacity)
        capacity_matrix = coo_matrix(
            (self._cap_over_dt, (range(n), range(n))), shape=(n, n)
        ).tocsc()
        self._step_solve = _factorize(
            (capacity_matrix + steady.conductance_matrix).tocsc()
        )
        STEP_FACTORIZATION_STATS.factorizations += 1
        nx, ny = steady.nx, steady.ny
        #: every cell of every die layer, for the per-step peak reduction
        self._die_cells = np.concatenate([
            layer * ny * nx + np.arange(ny * nx)
            for layer in sorted(set(steady._die_layer_map.values()))
        ])

    def _cell_capacities(self) -> np.ndarray:
        """Heat capacity (J/K) of every grid cell, layer by layer."""
        nx, ny = self.steady.nx, self.steady.ny
        dx = self.steady.spreader_w_mm * 1e-3 / nx
        dy = self.steady.spreader_h_mm * 1e-3 / ny
        caps = []
        for layer in self.steady.stack.layers:
            volume = dx * dy * layer.thickness_m
            caps.append(np.full(ny * nx, layer.material.heat_capacity_j_m3k * volume))
        return np.concatenate(caps)

    # ------------------------------------------------------------------ #

    def run_many(
        self,
        schedules: Sequence[PowerSchedule],
        duration_s: float,
        initial_k: Optional[float] = None,
    ) -> List[TransientResult]:
        """Step K runs in lock-step through the shared factorization,
        from a uniform ``initial_k`` (ambient when ``None``).

        Each step assembles one ``(n, K)`` RHS matrix — power scattered
        through the steady solver's chip-cell indices, then the
        convective ambient term, then the ``(C/dt) * T`` history term —
        and back-substitutes all K columns in a single SuperLU call.
        """
        if not schedules:
            return []
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        steady = self.steady
        nx, ny = steady.nx, steady.ny
        layers = steady.stack.layers
        n = len(layers) * ny * nx
        ambient = steady.stack.ambient_k
        start = initial_k if initial_k is not None else ambient
        kruns = len(schedules)
        temps = np.full((n, kruns), start, dtype=float)
        prev_peak = np.full(kruns, float(start))

        times: List[float] = []
        steps = max(1, int(round(duration_s / self.dt_s)))
        peaks = np.empty((steps, kruns))
        conv = steady._conv_per_cell
        chip_cells = steady._chip_cells
        die_cells = self._die_cells
        for step in range(1, steps + 1):
            t = step * self.dt_s
            rhs = np.zeros((n, kruns))
            for k, schedule in enumerate(schedules):
                grids = schedule.power_grids(t, float(prev_peak[k]))
                rhs[chip_cells, k] = steady._stack_power(grids)
            rhs[: ny * nx, :] += conv * ambient
            rhs += self._cap_over_dt[:, None] * temps
            temps = np.asarray(self._step_solve(rhs))
            if temps.ndim == 1:
                temps = temps[:, None]
            times.append(t)
            prev_peak = np.maximum.reduce(temps[die_cells, :], axis=0)
            peaks[step - 1] = prev_peak

        results = []
        for k in range(kruns):
            final = [
                temps[l * ny * nx:(l + 1) * ny * nx, k].reshape(ny, nx)
                for l in range(len(layers))
            ]
            results.append(
                TransientResult(
                    times_s=list(times),
                    peak_k=[float(p) for p in peaks[:, k]],
                    final_layer_temps=final,
                )
            )
        return results
