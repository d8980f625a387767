#!/usr/bin/env python3
"""SimPoint-style sampling: simulate less, conclude the same.

The paper uses SimPoint 2.0 to pick representative simulation points.
This example profiles a trace's basic-block vectors, clusters them,
simulates only the representative intervals, and compares the sampled
IPC against the full-trace IPC.

Run:  python examples/simpoint_sampling.py [benchmark] [length]
"""

import sys
import time

from repro.cpu.config import paper_configurations
from repro.cpu.pipeline import simulate
from repro.workloads.suite import generate
from repro.workloads.phases import choose_simpoints, sample_trace


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 24_000
    interval = 2_000
    config = paper_configurations()["Base"].config

    print(f"profiling {benchmark} ({length} instructions)...")
    trace = generate(benchmark, length=length)
    points = choose_simpoints(trace, interval=interval, max_clusters=4)
    print(f"chose {len(points)} simulation points:")
    for point in points:
        print(f"  interval {point.interval_index:3d} "
              f"(inst {point.start_instruction}), weight {point.weight:.2f}")

    t0 = time.time()
    full = simulate(trace, config, warmup=length // 4)
    full_time = time.time() - t0

    # SimPoint methodology: simulate each representative interval on its
    # own, warmed by the interval that precedes it, then combine the
    # per-point IPCs with the cluster weights.
    from repro.isa.compiled import CompiledTrace
    from repro.workloads.phases import weighted_metric

    t0 = time.time()
    point_ipcs = []
    simulated_insts = 0
    for point in points:
        start = max(0, point.start_instruction - interval)
        window = trace.array[start:point.start_instruction + interval]
        warmup = point.start_instruction - start
        piece = CompiledTrace(f"{benchmark}@{point.interval_index}",
                              trace.benchmark_class, trace.seed, window)
        # The L2 prewarm sees only this window (the preceding interval
        # plus the point), not the full trace a SimPoint checkpoint would
        # warm from; the preceding interval then warms the
        # pipeline-visible state.
        result = simulate(piece, config, warmup=warmup)
        point_ipcs.append(result.ipc)
        simulated_insts += len(window)
    sampled_ipc = weighted_metric(points, point_ipcs)
    sampled_time = time.time() - t0

    print(f"\nfull trace:       IPC {full.ipc:.3f}  ({len(trace)} insts, {full_time:.2f}s)")
    print(f"simpoint estimate: IPC {sampled_ipc:.3f}  ({simulated_insts} insts, {sampled_time:.2f}s)")
    error = abs(sampled_ipc - full.ipc) / full.ipc
    print(f"IPC error {error:.1%} at {simulated_insts / len(trace):.0%} of the "
          f"simulation work")


if __name__ == "__main__":
    main()
