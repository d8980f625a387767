"""Microbenchmark of the simulate pipeline: per-stage wall-clock + IPS.

Times the three stages a cold ``repro report --fast`` pays per workload —
trace generation, compilation to columnar form (+ pre-decode), and the
timing simulation itself — over the fast-report workload set (six
benchmarks x the six pinned configurations), single-process.  Emits a
``BENCH_simulate.json`` payload that CI records next to
``BENCH_report.json`` and gates against
``benchmarks/baselines/simulate_ips.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_simulate.py [--out BENCH_simulate.json]
"""

from __future__ import annotations

import argparse
import json
import time

from repro.cpu.pipeline import TimingSimulator
from repro.cpu.predecode import predecode
from repro.experiments.context import _all_configurations
from repro.workloads.suite import generate

#: The fast-report workload set (mirrors ``repro.cli.FAST_SETTINGS``).
BENCHMARKS = ("mpeg2", "mcf", "susan", "yacr2", "swim", "adpcm")
TRACE_LENGTH = 8_000
WARMUP = 2_500


def run(out_path: str) -> dict:
    configs = _all_configurations()

    t0 = time.perf_counter()
    traces = {name: generate(name, length=TRACE_LENGTH) for name in BENCHMARKS}
    t_generate = time.perf_counter() - t0

    t0 = time.perf_counter()
    predecoded = {}
    compiled_bytes = 0
    for name, trace in traces.items():
        compiled = trace.compiled()
        compiled_bytes += compiled.nbytes
        predecoded[name] = predecode(compiled)
    t_compile = time.perf_counter() - t0

    simulations = 0
    t0 = time.perf_counter()
    for pre in predecoded.values():
        for config in configs.values():
            TimingSimulator(config).run_compiled(pre, warmup=WARMUP)
            simulations += 1
    t_simulate = time.perf_counter() - t0

    instructions = simulations * TRACE_LENGTH
    payload = {
        "workload": {
            "benchmarks": list(BENCHMARKS),
            "configs": list(configs),
            "trace_length": TRACE_LENGTH,
            "warmup": WARMUP,
            "jobs": 1,
        },
        "stage_seconds": {
            "generate": round(t_generate, 3),
            # The emulator writes the compiled rows itself, so for these
            # generated traces ``compile`` is pre-decode alone: its
            # compile share is ~0.
            "compile": round(t_compile, 3),
            "simulate": round(t_simulate, 3),
        },
        "simulations": simulations,
        "instructions_simulated": instructions,
        "instructions_per_second": round(instructions / t_simulate, 1),
        "compiled_trace_bytes": compiled_bytes,
    }
    with open(out_path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_simulate.json",
                        help="output JSON path (default: %(default)s)")
    args = parser.parse_args()
    payload = run(args.out)
    stages = payload["stage_seconds"]
    print(f"generate {stages['generate']}s  compile {stages['compile']}s  "
          f"simulate {stages['simulate']}s "
          f"({payload['simulations']} simulations, "
          f"{payload['instructions_per_second']:,.0f} inst/s)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
