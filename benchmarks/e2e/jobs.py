"""One benchmark job in a fresh process: set up, run, check, report.

``run.py`` starts this script once per job with the checkout's ``src/``
on ``PYTHONPATH``::

    python3 benchmarks/e2e/jobs.py --workload W --seed S --work DIR \\
        --t0 MONOTONIC --out FILE [--spans DIR] [--timeline FILE]

The job records ``setup_s`` (from ``--t0``, the parent's monotonic clock
when it spawned this process, until imports are done and the context and
cache are open), then runs the workload once and records its wall time,
the CPU time of this process and its reaped pool workers, and peak RSS.
The three times are given at a nominal host speed (see
:class:`HostSpeed`), the ``raw_`` ones as measured.
``--spans`` wraps every layer boundary
(see ``layers.py``) and adds the per-layer metrics; ``--setup-only``
stops after set-up.  The record, with the output digest and any failed
self-check, goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

#: Worker processes of every job: the load is sized for two cores and
#: never exceeds the cores this process may run on.
JOBS = min(2, len(os.sched_getaffinity(0)))

#: The twelve benchmarks the fast report leaves out, spanning the
#: compute- and memory-bound suites.
SIM_BENCHMARKS = ("gzip", "crafty", "gcc", "art", "equake", "applu",
                  "jpeg", "g721", "patricia", "dijkstra", "ft", "hmmer")
SIM_LENGTH = 20_000
SIM_WARMUP = 6_000

THERMAL_GRID = 64
THERMAL_RHS = 8
#: Total chip power each random power map is scaled to (the paper's
#: peak-power application draws ~90 W).
CHIP_WATTS = 90.0
#: Relative tolerance of the steady-state energy balance check.
ENERGY_TOLERANCE = 1e-9

#: Iterations of the host-speed probe loop.
PROBE_ITERATIONS = 20_000
#: CPU seconds the probe loop takes at the nominal host speed that
#: ``wall_s``, ``cpu_s`` and ``setup_s`` are expressed at: about its
#: median on a 2-vCPU Intel Xeon VM with Python 3.11.  Fixed, so that two
#: commits are measured against the same speed.
PROBE_NOMINAL_S = 0.003
#: How often the sampler runs the probe while a job runs.
SAMPLE_PERIOD_S = 0.2
#: Probes run back to back right after set-up, to scale ``setup_s``.
SETUP_SAMPLES = 8
_PROBE_TABLE = {i: i * 7 % 1013 for i in range(4096)}


def _probe() -> float:
    """CPU seconds this thread spends on the fixed probe loop."""
    start = time.thread_time()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += _PROBE_TABLE[(i * 31 + acc) & 4095]
    return time.thread_time() - start


def _scale(samples) -> float:
    """The factor that takes a time measured while these probe times
    were taken to the nominal host speed."""
    return PROBE_NOMINAL_S / statistics.mean(samples)


def _cpu_of(tid: int) -> int:
    """The CPU that thread ``tid`` of this process last ran on."""
    with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as stream:
        # Field 39 of proc_pid_stat(5); field 2, the name, may hold spaces.
        return int(stream.read().rsplit(")", 1)[1].split()[36])


class HostSpeed(threading.Thread):
    """Samples the host's speed on a daemon thread while a job runs.

    A shared host runs the same instructions up to a third slower for
    seconds to minutes at a time, each virtual CPU on its own, and CPU
    time stretches with wall time, so raw job times of the same code
    spread by 10-20 % between runs.  Every ``SAMPLE_PERIOD_S`` the
    sampler moves itself to the CPU the job's main thread last ran on
    and times a fixed loop of interpreter work there, in its own
    thread's CPU time (which excludes waiting for the CPU or the
    interpreter lock).  :meth:`stop` returns ``PROBE_NOMINAL_S`` over the
    mean probe time (:func:`_scale`).  The probe takes no lock but the
    interpreter's, so pool workers may fork while it runs, and they
    inherit the main thread's CPU affinity, not the sampler's.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self._samples = []
        self._done = threading.Event()

    def run(self):
        main = threading.main_thread().native_id
        while not self._done.wait(SAMPLE_PERIOD_S):
            os.sched_setaffinity(0, {_cpu_of(main)})  # 0: this thread
            self._samples.append(_probe())

    def stop(self) -> float:
        self._done.set()
        self.join()
        return _scale(self._samples or [_probe()])


# ---------------------------------------------------------------------- #
# Workloads: set-up (counted in setup_s), run (timed), check (untimed).
# A run calls into the program through module attributes, so the traced
# run's wrappers, installed after set-up, see every call.
#
# report-cold / report-warm


def setup_report(args):
    import repro.cli
    from repro.experiments.context import ExperimentContext

    context = ExperimentContext(repro.cli.FAST_SETTINGS, jobs=JOBS)
    context.cache.ledger  # opens (or bootstraps) the size ledger
    return repro.cli


def run_report(cli, args):
    work = Path(args.work)
    return cli.main(["report", "--fast", "--jobs", str(JOBS),
                     "-o", str(work / "report.md"),
                     "--stats", str(work / "stats.json")])


def check_report(code, args) -> dict:
    if code != 0:
        return {"problems": [f"repro report exited with {code}"]}
    work = Path(args.work)
    stats = json.loads((work / "stats.json").read_text())
    problems = []
    if args.workload == "report-warm":
        for counter in ("simulated", "thermal_solved", "traces_generated",
                        "intervals_extracted"):
            if stats[counter]:
                problems.append(f"warm report: {counter}={stats[counter]}")
    elif not stats["simulated"]:
        problems.append("cold report simulated nothing")
    return {
        "digest": hashlib.sha256((work / "report.md").read_bytes()).hexdigest(),
        "problems": problems,
        "counters": stats,
    }


# ---------------------------------------------------------------------- #
# sim-sweep


def setup_sim(args):
    from repro.cpu import pipeline
    from repro.experiments.context import _all_configurations
    from repro.workloads import suite

    return pipeline, suite, _all_configurations()


def run_sim(state, args) -> dict:
    pipeline, suite, configs = state
    results = {}
    for name in SIM_BENCHMARKS:
        compiled = suite.generate(name, SIM_LENGTH, seed=args.seed).compiled()
        if compiled is None:
            results[name] = None
            continue
        for label, config in configs.items():
            results[name, label] = pipeline.simulate(compiled, config,
                                                     warmup=SIM_WARMUP)
    return results


def check_sim(results, args) -> dict:
    problems = [f"{key}: trace did not compile"
                for key, result in results.items() if result is None]
    digest = hashlib.sha256()
    for (name, label), result in sorted(
        (key, result) for key, result in results.items() if result is not None
    ):
        digest.update(pickle.dumps(result, protocol=4))
        if result.instructions != SIM_LENGTH - SIM_WARMUP:
            problems.append(f"{name}/{label}: committed "
                            f"{result.instructions} instructions")
        if sum(result.cpi_stack.values()) != result.cycles:
            problems.append(f"{name}/{label}: CPI stack does not sum "
                            f"to {result.cycles} cycles")
    return {"digest": digest.hexdigest(), "problems": problems}


# ---------------------------------------------------------------------- #
# thermal-sweep


def setup_thermal(args):
    import numpy as np

    from repro.experiments.context import CORE_COUNT, ExperimentContext
    from repro.experiments.sensitivity import SWEEPS, _stack_with
    from repro.floorplan import planar_floorplan, stacked_floorplan
    from repro.thermal import power_map
    from repro.thermal.solver import ThermalSolver
    from repro.thermal.stack import planar_stack, stacked_3d_stack

    plan2d = planar_floorplan(CORE_COUNT)
    plan3d = stacked_floorplan(CORE_COUNT)
    candidates = [(planar_stack(), plan2d), (stacked_3d_stack(), plan3d)]
    for parameter, _nominal, values in SWEEPS:
        for value in values:
            convection = value if parameter == "convection K/W" else 0.17
            tim = value if parameter == "TIM W/mK" else 50.0
            copper = value if parameter == "via copper fraction" else 0.25
            candidates.append((_stack_with(convection, tim, copper), plan3d))
    rng = np.random.default_rng(args.seed)
    inputs, seen = [], set()
    for stack, plan in candidates:
        solver = ThermalSolver(stack, plan, THERMAL_GRID, THERMAL_GRID)
        if solver.matrix_key() in seen:
            continue
        seen.add(solver.matrix_key())
        maps = []
        for _ in range(THERMAL_RHS):
            watts = rng.random(len(plan.blocks))
            watts *= CHIP_WATTS / watts.sum()
            maps.append({(block.name, block.die): float(w)
                         for block, w in zip(plan.blocks, watts)})
        inputs.append((solver, maps))
    return ExperimentContext(jobs=JOBS, cache=None), power_map, inputs


def run_thermal(state, args):
    context, power_map, inputs = state
    groups = []
    for solver, maps in inputs:
        ny, nx = solver.chip_grid_shape()
        groups.append((solver, [
            power_map.rasterize(solver.floorplan, watts, nx, ny)
            for watts in maps
        ]))
    return context, groups, context.solve_thermal_groups(groups)


def check_thermal(output, args) -> dict:
    import numpy as np

    context, groups, solved = output
    problems = []
    digest = hashlib.sha256()
    for (solver, batches), results in zip(groups, solved):
        stack = solver.stack
        for grids, result in zip(batches, results):
            for temps in result.layer_temps:
                digest.update(np.ascontiguousarray(temps).tobytes())
            # Steady state: the heat leaving through the sink (layer 0's
            # convective term) equals the injected power.
            injected = sum(float(grid.sum()) for grid in grids)
            removed = float(
                (result.layer_temps[0] - stack.ambient_k).mean()
            ) / stack.convection_k_per_w
            if abs(removed - injected) > ENERGY_TOLERANCE * injected:
                problems.append(f"{solver.geometry_id()}: {removed:.9f} W "
                                f"removed vs {injected:.9f} W injected")
    return {"digest": digest.hexdigest(), "problems": problems,
            "counters": context.stats.as_dict()}


WORKLOADS = {
    "report-cold": (setup_report, run_report, check_report),
    "report-warm": (setup_report, run_report, check_report),
    "sim-sweep": (setup_sim, run_sim, check_sim),
    "thermal-sweep": (setup_thermal, run_thermal, check_thermal),
}


# ---------------------------------------------------------------------- #


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def _timed(run, state, args, record: dict):
    """Run once; ``wall_s`` and ``cpu_s`` are at the nominal host speed,
    ``raw_wall_s`` and ``raw_cpu_s`` as measured."""
    speed = HostSpeed()
    speed.start()
    cpu0, start = _cpu_seconds(), time.perf_counter()
    output = run(state, args)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    scale = speed.stop()
    record.update(wall_s=wall * scale, cpu_s=cpu * scale,
                  raw_wall_s=wall, raw_cpu_s=cpu)
    return output


def _traced(run, check, state, args, record: dict) -> dict:
    """Run under spans; adds the per-layer metrics to ``record``."""
    import layers
    from spans import Tracer, chrome_trace, read_spans

    tracer = Tracer(args.spans)
    layers.install(tracer)
    with tracer.span(layers.ROOT):
        output = _timed(run, state, args, record)
    tracer.uninstall()
    outcome = check(output, args)

    spans = read_spans(args.spans)
    counters = outcome.get("counters", {})
    record["layers"] = layers.layer_metrics(spans, os.getpid(), counters,
                                            JOBS)
    if args.workload == "report-cold":
        # A start-method change would silently drop worker spans.
        seen = layers.simulations_outside_intervals(spans)
        if seen != counters.get("simulated"):
            outcome["problems"].append(
                f"{seen} cpu.core spans for "
                f"{counters.get('simulated')} simulations")
    if args.timeline:
        with open(args.timeline, "w", encoding="utf-8") as stream:
            json.dump(chrome_trace(spans, os.getpid()), stream)
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--timeline")
    parser.add_argument("--setup-only", action="store_true",
                        help="record setup_s and stop")
    args = parser.parse_args(argv)

    setup, run, check = WORKLOADS[args.workload]
    state = setup(args)
    setup_s = time.monotonic() - args.t0
    scale = _scale([_probe() for _ in range(SETUP_SAMPLES)])
    record = {"setup_s": setup_s * scale, "raw_setup_s": setup_s}
    if not args.setup_only:
        if args.spans:
            outcome = _traced(run, check, state, args, record)
        else:
            outcome = check(_timed(run, state, args, record), args)
        record["peak_rss_mb"] = _peak_rss_mb()
        record["digest"] = outcome.get("digest")
        record["problems"] = outcome["problems"]
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(record, stream)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
