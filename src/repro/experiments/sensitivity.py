"""Thermal sensitivity analysis of the Section 4 packaging assumptions.

The paper's thermal conclusions rest on three packaging parameters: the
sink's convection resistance, the TIM conductivity (they assume a
phase-change metallic alloy), and the d2d via fill (25 % copper).  This
study sweeps each around its nominal value and reports the worst-case 3D
Thermal Herding temperature, showing which assumption the +12 K result
leans on hardest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.context import (
    CORE_COUNT,
    ExperimentContext,
    ExperimentSettings,
    REFERENCE_BENCHMARK,
)
from repro.experiments.plan import PoolWork, Requirements, Resolved, run_section
from repro.power.model import StackKind
from repro.thermal.materials import COPPER, D2D_BOND, Material, TIM_ALLOY
from repro.thermal.power_map import build_power_map, rasterize
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import ThermalStack, stacked_3d_stack


@dataclass
class SensitivityPoint:
    """One parameter setting and the resulting peak temperature."""

    parameter: str
    value: float
    peak_k: float


@dataclass
class SensitivityResult:
    """Sweeps of the three packaging parameters."""

    nominal_peak_k: float
    points: List[SensitivityPoint]

    def by_parameter(self) -> Dict[str, List[SensitivityPoint]]:
        grouped: Dict[str, List[SensitivityPoint]] = {}
        for point in self.points:
            grouped.setdefault(point.parameter, []).append(point)
        return grouped

    def spread(self, parameter: str) -> float:
        """Peak-to-peak temperature spread of one parameter's sweep."""
        temps = [p.peak_k for p in self.points if p.parameter == parameter]
        return max(temps) - min(temps) if temps else 0.0

    def format(self) -> str:
        lines = [
            f"thermal sensitivity (3D TH worst case, nominal {self.nominal_peak_k:.1f} K)",
            f"{'parameter':<22s} {'value':>10s} {'peak K':>8s}",
        ]
        for parameter, points in self.by_parameter().items():
            for p in points:
                lines.append(f"{parameter:<22s} {p.value:10.3g} {p.peak_k:8.1f}")
            lines.append(f"  -> spread {self.spread(parameter):.1f} K")
        return "\n".join(lines)


def _stack_with(
    convection: float,
    tim_k: float,
    via_copper_fraction: float,
) -> ThermalStack:
    """A 3D stack with modified packaging parameters."""
    tim = Material("tim-sweep", conductivity_w_mk=tim_k)
    bond_k = via_copper_fraction * COPPER.conductivity_w_mk + \
        (1.0 - via_copper_fraction) * 0.5
    bond = Material("bond-sweep", conductivity_w_mk=bond_k)
    base = stacked_3d_stack(convection)
    layers = []
    for layer in base.layers:
        if layer.material is TIM_ALLOY:
            layers.append(dataclasses.replace(layer, material=tim))
        elif layer.material is D2D_BOND:
            layers.append(dataclasses.replace(layer, material=bond))
        else:
            layers.append(layer)
    stack = ThermalStack(name="sweep", layers=layers, convection_k_per_w=convection)
    stack.validate()
    return stack


#: (parameter name, nominal, sweep values)
SWEEPS: List[Tuple[str, float, List[float]]] = [
    ("convection K/W", 0.17, [0.12, 0.17, 0.25, 0.35]),
    ("TIM W/mK", 50.0, [4.0, 20.0, 50.0, 80.0]),
    ("via copper fraction", 0.25, [0.05, 0.15, 0.25, 0.50]),
]


def _sweep_settings() -> List[Tuple[str, float, Tuple[float, float, float]]]:
    """(parameter, value, (convection, TIM, via copper)) of every point,
    the nominal one first."""
    points = [("nominal", 0.0, (0.17, 50.0, 0.25))]
    for parameter, _nominal_value, values in SWEEPS:
        for value in values:
            convection = value if parameter == "convection K/W" else 0.17
            tim = value if parameter == "TIM W/mK" else 50.0
            copper = value if parameter == "via copper fraction" else 0.25
            points.append((parameter, value, (convection, tim, copper)))
    return points


def requirements(
    settings: ExperimentSettings,
    benchmark: str = REFERENCE_BENCHMARK,
) -> Requirements:
    """The benchmark's 3D TH map on every sweep point's stack.

    Each distinct packaging geometry needs its own SuperLU factorization
    (the dominant cost of this study) that no other section reuses, so
    the whole sweep is pool-side work: workers factorize the geometries
    while the parent does its own solves.
    """

    def pool(context: ExperimentContext, traces) -> PoolWork:
        breakdown = context.power(benchmark, "3D")
        plan = context.floorplan(StackKind.STACKED_3D)
        watts = build_power_map(plan, [breakdown] * CORE_COUNT)
        grid = settings.thermal_grid
        # The chip grid shape depends only on (floorplan, nx, ny), so
        # every sweep stack shares one rasterized power map.
        grids = None
        groups = []
        for _parameter, _value, (convection, tim, copper) in _sweep_settings():
            solver = ThermalSolver(_stack_with(convection, tim, copper),
                                   plan, grid, grid)
            if grids is None:
                ny, nx = solver.chip_grid_shape()
                grids = rasterize(plan, watts, nx, ny)
            groups.append((solver, [grids]))
        return PoolWork(groups=groups)

    return Requirements(
        render=render,
        runs=[(benchmark, "3D"), (REFERENCE_BENCHMARK, "Base")],
        pool=pool,
    )


def render(results: Resolved) -> SensitivityResult:
    solved, _ = results.pool()
    points = [
        SensitivityPoint(parameter=parameter, value=value,
                         peak_k=result[0].peak_temperature)
        for (parameter, value, _), result
        in zip(_sweep_settings()[1:], solved[1:])
    ]
    return SensitivityResult(nominal_peak_k=solved[0][0].peak_temperature,
                             points=points)


def run_sensitivity(
    context: Optional[ExperimentContext] = None,
    benchmark: str = REFERENCE_BENCHMARK,
) -> SensitivityResult:
    """Sweep packaging parameters for the 3D TH processor."""
    return run_section(context, requirements, benchmark)
