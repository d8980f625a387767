#!/usr/bin/env python3
"""Design-space exploration of the Thermal Herding mechanisms.

Sweeps three design choices the paper fixes and shows their sensitivity:

1. width predictor table size and counter width (prediction accuracy vs
   unsafe misprediction stalls);
2. scheduler allocation policy (top-die-first vs round-robin) — the
   herding effect on tag broadcast activity;
3. L1D upper-bit encoding (the paper's 2-bit scheme vs a 1-bit
   all-zeros-only memoization) — herded load fraction.

Run:  python examples/design_space.py [benchmark] [length]
"""

import sys
from dataclasses import replace

from repro.core.dcache_encoding import EncodingScheme
from repro.core.scheduler_allocation import AllocationPolicy
from repro.cpu.config import paper_configurations
from repro.cpu.pipeline import simulate
from repro.workloads.suite import generate


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "crafty"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 16_000
    warmup = length // 3
    trace = generate(benchmark, length=length)
    th_config = paper_configurations()["3D"].config

    print(f"=== width predictor sweep ({benchmark}) ===")
    print(f"{'entries':>8s} {'bits':>5s} {'accuracy':>9s} {'unsafe':>7s} {'stall cyc':>10s}")
    for entries in (256, 1024, 4096):
        for bits in (1, 2, 3):
            config = replace(th_config, width_predictor_entries=entries,
                             width_counter_bits=bits)
            result = simulate(trace, config, warmup=warmup)
            stats = result.width_stats
            print(f"{entries:8d} {bits:5d} {stats.accuracy:9.1%} "
                  f"{stats.unsafe_mispredictions:7d} {result.stalls.total:10d}")

    print(f"\n=== scheduler allocation policy ===")
    print(f"{'policy':<12s} {'dies/broadcast':>15s} {'top-die share':>14s}")
    for policy in AllocationPolicy:
        config = replace(th_config, scheduler_policy=policy)
        result = simulate(trace, config, warmup=warmup)
        dies = result.herding["scheduler_dies_per_broadcast"]
        top = result.herding.get("herded::scheduler", 0.0)
        print(f"{policy.value:<12s} {dies:15.2f} {top:14.1%}")

    print(f"\n=== L1D upper-bit encoding ===")
    print(f"{'scheme':<10s} {'herded loads':>13s} {'width stalls':>13s}")
    for scheme in EncodingScheme:
        config = replace(th_config, dcache_encoding=scheme)
        result = simulate(trace, config, warmup=warmup)
        print(f"{scheme.value:<10s} {result.herding['dcache_herded_loads']:13.1%} "
              f"{result.stalls.dcache_width_stalls:13d}")


if __name__ == "__main__":
    main()
