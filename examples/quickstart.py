#!/usr/bin/env python3
"""Quickstart: simulate one benchmark on the planar and 3D processors.

Generates the mpeg2-like trace, runs it through the paper's five
configurations (Base / TH / Pipe / Fast / 3D), and prints performance,
width prediction, and herding summaries.

Run:  python examples/quickstart.py [benchmark] [length]
"""

import sys

from repro.cpu.config import paper_configurations
from repro.cpu.pipeline import simulate
from repro.workloads.suite import benchmark_names, generate
from repro.workloads.validation import TraceStats


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "mpeg2"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    if benchmark not in benchmark_names():
        raise SystemExit(
            f"unknown benchmark {benchmark!r}; choose from: {', '.join(benchmark_names())}"
        )
    warmup = length // 3

    print(f"generating {benchmark} trace ({length} instructions)...")
    trace = generate(benchmark, length=length)
    stats = TraceStats.from_trace(trace)
    print(f"  low-width results: {stats.low_width_result_fraction:.1%}, "
          f"memory: {stats.memory_fraction:.1%}, branches: {stats.branch_fraction:.1%}")

    results = {}
    for label, pc in paper_configurations().items():
        results[label] = simulate(trace, pc.config, warmup=warmup)

    print(f"\n{'config':<6s} {'GHz':>5s} {'IPC':>6s} {'IPns':>6s} {'speedup':>8s}")
    base_ipns = results["Base"].ipns
    for label, result in results.items():
        print(
            f"{label:<6s} {result.clock_ghz:5.2f} {result.ipc:6.2f} "
            f"{result.ipns:6.2f} {result.ipns / base_ipns:7.2f}x"
        )

    th = results["3D"]
    assert th.width_stats is not None
    print(f"\nThermal Herding on the 3D processor:")
    print(f"  width prediction accuracy (predicted insts): {th.width_stats.accuracy:.1%}")
    print(f"  unsafe mispredictions: {th.width_stats.unsafe_mispredictions}, "
          f"stall cycles: {th.stalls.total}")
    for metric in ("pam_herded", "dcache_herded_loads", "scheduler_dies_per_broadcast"):
        if metric in th.herding:
            print(f"  {metric}: {th.herding[metric]:.3f}")


if __name__ == "__main__":
    main()
