#!/usr/bin/env python3
"""Heterogeneous core pairing: scheduling as a thermal knob.

Runs three pairings on the two-core 3D Thermal Herding chip — hot+hot,
hot+cool, cool+cool — and prints throughput, power, peak temperature, and
the asymmetric thermal map of the mixed pairing.

Run:  python examples/core_pairing.py [hot_benchmark] [cool_benchmark]
"""

import sys

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.pairing import run_pairing
from repro.power.model import StackKind


def main() -> None:
    hot = sys.argv[1] if len(sys.argv) > 1 else "mpeg2"
    cool = sys.argv[2] if len(sys.argv) > 2 else "mcf"
    context = ExperimentContext(ExperimentSettings(
        trace_length=14_000, warmup=4_000, benchmarks=(hot, cool),
        thermal_grid=64,
    ))

    pairs = ((hot, hot), (hot, cool), (cool, cool))
    result = run_pairing(context, pairs=pairs)
    print(result.format())

    # The mixed pairing's asymmetric map: core0 (hot) vs core1 (cool).
    model = context.power_model()
    from repro.cpu.multicore import simulate_dual_core
    run = simulate_dual_core(
        context.trace(hot), context.trace(cool),
        context.configs["3D"], warmup=context.settings.warmup,
    )
    breakdowns = [model.evaluate(r, StackKind.STACKED_3D) for r in run.results]
    thermal = context.thermal_grouped(
        {StackKind.STACKED_3D: [(breakdowns, 1.0)]}
    )[StackKind.STACKED_3D][0]

    print(f"\nmixed pairing ({hot} on core0, {cool} on core1):")
    hottest = sorted(thermal.block_peak.items(), key=lambda kv: -kv[1])[:8]
    for (name, die), temp in hottest:
        print(f"  {name:<26s} die {die}  {temp:6.1f} K")
    core0_peak = max(t for (n, _d), t in thermal.block_peak.items()
                     if n.startswith("core0."))
    core1_peak = max(t for (n, _d), t in thermal.block_peak.items()
                     if n.startswith("core1."))
    print(f"\ncore0 ({hot}) peak: {core0_peak:.1f} K; "
          f"core1 ({cool}) peak: {core1_peak:.1f} K; "
          f"asymmetry {core0_peak - core1_peak:+.1f} K")


if __name__ == "__main__":
    main()
