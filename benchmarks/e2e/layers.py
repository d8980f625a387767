"""Which repro functions the traced run wraps, and the per-layer metrics.

Span names follow the module that owns the layer.  Every per-layer time
is summed self time across all processes (parent and pool workers); see
``README.md`` for which end-to-end metric each layer should move.
``BENCHMARK.json`` lists the metrics with their units.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from spans import Tracer, ancestors, self_times, span_key

#: Name of the span the job runner opens around the whole job.
ROOT = "e2e.job"

#: Pool counters read from the job's ``ContextStats``.
POOL_COUNTERS = ("tasks_run", "task_retries", "task_timeouts",
                 "pool_restarts", "serial_fallbacks")

DISPATCH = "experiments.context.dispatch"
TASK = "experiments.context.task"
INTERVAL_EXTRACT = "experiments.interval.extract"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the program in ``tracer`` spans.

    Must run before the job forks any pool, so workers inherit the
    wrappers.
    """
    import repro.cli  # noqa: F401  (loads every experiments module)
    from repro.cpu import pipeline, predecode, wavefront
    from repro.experiments import cache, context, interval, report, supervised
    from repro.isa import compiled
    from repro.power import model
    from repro.thermal import power_map, solver, transient
    from repro.workloads import suite

    def none_hit(args, kwargs, result):
        return {"hit": result is not None}

    def instructions(args, kwargs, result):
        pre = args[1] if len(args) > 1 else kwargs["pre"]
        return {"inst": pre.n}

    wrap = tracer.instrument
    wrap(suite.generate, "workloads.generate")
    wrap(compiled.compile_trace, "isa.compile",
         attrs=lambda a, k, r: {"bytes": r.nbytes})
    wrap(predecode.predecode, "cpu.predecode")
    wrap(wavefront.build_plan, "cpu.wavefront")
    wrap(pipeline.TimingSimulator.run_compiled, "cpu.core",
         attrs=instructions)
    wrap(model.PowerModel.evaluate, "power.evaluate")
    wrap(model.PowerModel.evaluate_intervals, "power.evaluate")
    wrap(power_map.rasterize, "thermal.rasterize")
    wrap(solver.ThermalSolver.solve_many, "thermal.steady",
         attrs=lambda a, k, r: {"rhs": len(r)})
    # One function factorizes both matrices; the module that calls it
    # tells the steady conductance matrix from the transient step matrix.
    factorize = solver._factorize
    wrap(factorize, "thermal.factorize", modules=["repro.thermal.solver"])
    wrap(factorize, "thermal.step_factorize",
         modules=["repro.thermal.transient"])
    wrap(transient.TransientThermalSolver.run_many, "thermal.transient",
         attrs=lambda a, k, r: {"steps": sum(len(x.times_s) for x in r)})
    wrap(interval.extract_interval_trace, INTERVAL_EXTRACT)
    wrap(interval.IntervalPowerSchedule.power_grids,
         "experiments.interval.schedule")
    wrap(cache.ResultCache.load, "experiments.cache.load", attrs=none_hit)
    wrap(cache.ResultCache.store, "experiments.cache.store")
    wrap(cache.TraceStore.load, "experiments.cache.trace_load")
    wrap(cache.TraceStore.store, "experiments.cache.trace_store")
    for method in (context.ExperimentContext.prefetch,
                   context.ExperimentContext.solve_thermal_groups,
                   context.ExperimentContext.transient_many):
        wrap(method, DISPATCH)
    for task in (context._simulate_task, supervised.solve_group_task,
                 supervised.transient_group_task):
        wrap(task, TASK)
    wrap(report.generate_report, "experiments.report")


def simulations_outside_intervals(spans: List[dict]) -> int:
    """``cpu.core`` spans that ``ContextStats.simulated`` counts.

    Interval extraction re-runs the core with an activity capture and is
    counted as ``intervals_extracted`` instead.
    """
    index = {span_key(span): span for span in spans}
    return sum(
        1 for span in spans
        if span["name"] == "cpu.core"
        and INTERVAL_EXTRACT not in ancestors(span, index)
    )


def layer_metrics(spans: List[dict], root_pid: int,
                  counters: Dict[str, int], jobs: int) -> Dict[str, float]:
    """Every per-layer metric except ``tracing.overhead_s``, which needs
    the run's untraced jobs too.

    ``counters`` holds the job's ``ContextStats`` payload (empty when
    the job has no context); ``jobs`` is its worker count.
    """
    selfs = self_times(spans)
    index = {span_key(span): span for span in spans}
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def self_s(name: str) -> float:
        return sum(selfs[span_key(span)] for span in by_name[name])

    def count(name: str) -> int:
        return len(by_name[name])

    def attr_sum(name: str, attr: str) -> float:
        return sum(span.get(attr, 0) for span in by_name[name])

    core_inst = attr_sum("cpu.core", "inst")
    core_time = sum(span["dur"] for span in by_name["cpu.core"])
    loads = count("experiments.cache.load")
    dispatch_s = sum(
        span["dur"] for span in by_name[DISPATCH]
        if span["pid"] == root_pid and DISPATCH not in ancestors(span, index)
    )
    worker_busy = sum(
        span["dur"] for span in by_name[TASK] if span["pid"] != root_pid
    )
    roots = by_name[ROOT]
    wall = sum(span["dur"] for span in roots)
    uncovered = self_s(ROOT) + self_s("experiments.report")

    out = {
        "workloads.generate_s": self_s("workloads.generate"),
        "workloads.traces": count("workloads.generate"),
        "isa.compile_s": self_s("isa.compile"),
        "isa.compiled_bytes": attr_sum("isa.compile", "bytes"),
        "cpu.predecode_s": self_s("cpu.predecode"),
        "cpu.wavefront_s": self_s("cpu.wavefront"),
        "cpu.core_s": self_s("cpu.core"),
        "cpu.simulations": count("cpu.core"),
        "cpu.inst_per_s": core_inst / core_time if core_time else 0.0,
        "power.evaluate_s": self_s("power.evaluate"),
        "power.calls": count("power.evaluate"),
        "thermal.rasterize_s": self_s("thermal.rasterize"),
        "thermal.steady_s": self_s("thermal.steady"),
        "thermal.factorize_s": self_s("thermal.factorize"),
        "thermal.rhs": attr_sum("thermal.steady", "rhs"),
        "thermal.factorizations": count("thermal.factorize"),
        "thermal.transient_s": self_s("thermal.transient"),
        "thermal.step_factorize_s": self_s("thermal.step_factorize"),
        "thermal.transient_steps": attr_sum("thermal.transient", "steps"),
        "thermal.step_factorizations": count("thermal.step_factorize"),
        "experiments.interval.extract_s": self_s(INTERVAL_EXTRACT),
        "experiments.interval.schedule_s":
            self_s("experiments.interval.schedule"),
        "experiments.cache.load_s": self_s("experiments.cache.load"),
        "experiments.cache.loads": loads,
        "experiments.cache.hit_ratio":
            attr_sum("experiments.cache.load", "hit") / loads if loads else 0.0,
        "experiments.cache.store_s": self_s("experiments.cache.store"),
        "experiments.cache.stores": count("experiments.cache.store"),
        "experiments.cache.trace_load_s":
            self_s("experiments.cache.trace_load"),
        "experiments.cache.trace_store_s":
            self_s("experiments.cache.trace_store"),
        "experiments.cache.claim_waits": counters.get("claim_waits", 0),
        "experiments.context.dispatch_s": dispatch_s,
        "experiments.context.parallel_efficiency":
            worker_busy / (jobs * dispatch_s) if dispatch_s else 0.0,
        "experiments.report.self_s": self_s("experiments.report"),
        "tracing.coverage": 1.0 - uncovered / wall if wall else 0.0,
        "tracing.worker_spans":
            sum(1 for span in spans if span["pid"] != root_pid),
    }
    for name in POOL_COUNTERS:
        out[f"experiments.context.{name}"] = counters.get(name, 0)
    return out
