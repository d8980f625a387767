#!/usr/bin/env python3
"""Thermal comparison: planar vs 3D-no-herding vs 3D Thermal Herding.

Runs one application on both cores of the three processors (Figure 10's
d-f scenario), prints total power, peak temperatures, per-die peaks, and
an ASCII thermal map of the hottest die layer.

Run:  python examples/thermal_comparison.py [benchmark]
"""

import sys

import numpy as np

from repro.experiments.context import ExperimentContext, ExperimentSettings

_SHADES = " .:-=+*#%@"


def ascii_map(grid: np.ndarray, lo: float, hi: float) -> str:
    """Render a temperature grid with ASCII intensity shades."""
    span = max(hi - lo, 1e-9)
    rows = []
    for row in grid[::2]:  # halve vertical resolution for terminal aspect
        chars = []
        for value in row:
            level = int((value - lo) / span * (len(_SHADES) - 1))
            chars.append(_SHADES[max(0, min(level, len(_SHADES) - 1))])
        rows.append("".join(chars))
    return "\n".join(rows)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "mpeg2"
    context = ExperimentContext(ExperimentSettings(
        trace_length=16_000, warmup=5_000, benchmarks=(benchmark,),
        thermal_grid=64,
    ))

    labels = ("Base", "3D-noTH", "3D")
    results = {}
    for label in labels:
        power = context.power(benchmark, label)
        thermal = context.thermal(benchmark, label)
        results[label] = (power, thermal)

    base_peak = results["Base"][1].peak_temperature
    print(f"{benchmark} on both cores:")
    print(f"{'config':<8s} {'chip W':>8s} {'peak K':>8s} {'delta':>7s}  hottest block")
    for label in labels:
        power, thermal = results[label]
        name, die, _ = thermal.hottest_block()
        delta = thermal.peak_temperature - base_peak
        print(
            f"{label:<8s} {2 * power.total_watts:8.1f} {thermal.peak_temperature:8.1f} "
            f"{delta:+7.1f}  {name} (die {die})"
        )

    for label in ("3D-noTH", "3D"):
        thermal = results[label][1]
        print(f"\n{label}: per-die peak temperatures (die 0 = next to heat sink)")
        for die in range(4):
            print(f"  die {die}: {thermal.die_peak(die):6.1f} K")

    # ASCII map of the hottest die of the Thermal Herding processor.
    thermal = results["3D"][1]
    hottest_die = max(range(4), key=thermal.die_peak)
    grid = thermal.layer_temps[thermal.die_layers[hottest_die]]
    lo, hi = float(grid.min()), float(grid.max())
    print(f"\n3D Thermal Herding, die {hottest_die} ({lo:.0f}K..{hi:.0f}K):")
    print(ascii_map(grid, lo, hi))


if __name__ == "__main__":
    main()
