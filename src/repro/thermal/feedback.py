"""Leakage-temperature feedback (thermal-electrical fixed point).

Subthreshold leakage grows roughly exponentially with temperature; the
paper holds leakage constant (20 % of the baseline total), which is
conservative at the baseline temperature but optimistic in a hot 3D
stack.  This module iterates the coupled system:

    T = solve(P_dynamic + P_leak(T)),
    P_leak(T) = P_leak_ref * exp((T - T_ref) / T_e)

to a fixed point, exposing both the converged temperatures and the
leakage amplification.  ``T_e`` (the e-folding temperature) of ~35 K
corresponds to the commonly quoted "leakage doubles every ~25 K".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.thermal.solver import ThermalResult, ThermalSolver

#: Bump when the fixed-point iteration changes; part of every
#: persistent leakage fixed-point cache key.
FEEDBACK_MODEL_VERSION = 1

#: Leakage e-folding temperature (K): doubles every ~24 K.
DEFAULT_EFOLD_K = 35.0
#: Iteration budget of the fixed-point loop.
DEFAULT_MAX_ITERATIONS = 20
#: The loop converges once the peak moves less than this (K).
DEFAULT_TOLERANCE_K = 0.05


#: Exponent clamp: leakage scaling saturates at e^3 ~ 20x per cell.
_MAX_EXPONENT = 3.0
#: Peak temperature above which the loop declares thermal runaway.
RUNAWAY_K = 500.0


@dataclass
class FeedbackResult:
    """Converged thermal solution plus leakage bookkeeping."""

    result: ThermalResult
    iterations: int
    converged: bool
    runaway: bool
    leakage_ref_watts: float
    leakage_final_watts: float

    @property
    def leakage_amplification(self) -> float:
        if self.leakage_ref_watts <= 0:
            return 1.0
        return self.leakage_final_watts / self.leakage_ref_watts


def solve_with_leakage_feedback(
    solver: ThermalSolver,
    dynamic_grids: Sequence[np.ndarray],
    leakage_grids: Sequence[np.ndarray],
    reference_k: float,
    efold_k: float = DEFAULT_EFOLD_K,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance_k: float = DEFAULT_TOLERANCE_K,
) -> FeedbackResult:
    """Iterate temperature and leakage to a fixed point.

    ``leakage_grids`` hold the per-die leakage power *at* ``reference_k``
    (the temperature the designer budgeted leakage for); the loop scales
    each cell's leakage by ``exp((T_cell - reference_k) / efold_k)`` and
    re-solves until the peak moves less than ``tolerance_k``.
    """
    if efold_k <= 0:
        raise ValueError(f"efold_k must be positive, got {efold_k}")
    if len(dynamic_grids) != len(leakage_grids):
        raise ValueError("dynamic and leakage grids must align per die")

    leak_ref = float(sum(g.sum() for g in leakage_grids))
    die_layers = {
        layer.power_die: None
        for layer in solver.stack.layers
        if layer.power_die is not None
    }
    if len(dynamic_grids) != len(die_layers):
        raise ValueError(
            f"expected {len(die_layers)} per-die grids, got {len(dynamic_grids)}"
        )

    scaled = [np.asarray(g, dtype=float).copy() for g in leakage_grids]
    result: Optional[ThermalResult] = None
    previous_peak = float("inf")
    converged = False
    runaway = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        total = [d + l for d, l in zip(dynamic_grids, scaled)]
        result = solver.solve(total)
        peak = result.peak_temperature
        if peak > RUNAWAY_K:
            runaway = True
            break
        if abs(peak - previous_peak) < tolerance_k:
            converged = True
            break
        previous_peak = peak
        # Re-scale leakage from each die's temperature field (sampled at
        # the die layer over the chip window), damped 50 % in log space
        # for stable convergence near the runaway boundary.
        for die, grid in enumerate(leakage_grids):
            layer = result.die_layers[die]
            temps = result.layer_temps[layer]
            window = temps[
                solver._chip_y0:solver._chip_y0 + solver._chip_ny,
                solver._chip_x0:solver._chip_x0 + solver._chip_nx,
            ]
            exponent = np.clip((window - reference_k) / efold_k, -5.0, _MAX_EXPONENT)
            target = np.asarray(grid) * np.exp(exponent)
            scaled[die] = np.sqrt(scaled[die] * target + 1e-300)

    assert result is not None
    leak_final = float(sum(g.sum() for g in scaled))
    return FeedbackResult(
        result=result,
        iterations=iterations,
        converged=converged,
        runaway=runaway,
        leakage_ref_watts=leak_ref,
        leakage_final_watts=leak_final,
    )


def uniform_leakage_grids(
    solver: ThermalSolver,
    total_leakage_watts: float,
) -> List[np.ndarray]:
    """Leakage distributed uniformly over the chip area of every die."""
    ny, nx = solver.chip_grid_shape()
    dies = solver.stack.die_count
    per_cell = total_leakage_watts / (dies * nx * ny)
    return [np.full((ny, nx), per_cell) for _ in range(dies)]
