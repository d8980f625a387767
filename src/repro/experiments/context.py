"""Shared experiment state: cached traces, runs, and calibrated models.

The paper's evaluation reuses the same simulation runs across figures
(e.g. mpeg2's Base run both anchors the 90 W power calibration and feeds
Figure 8); the context memoizes everything so the benchmark harness does
each piece of work once per process.

:class:`ExperimentContext` keeps the settings, the memos and the methods
that sections and the report plan call, and cuts work into pool tasks:
simulations by trace, thermal work by geometry group.  Two modules that
know nothing of either do the rest: :mod:`repro.experiments.resolver`
serves cached results under cross-process claims, and
:mod:`repro.experiments.executor` runs the misses on fault-tolerant
process pools (``jobs`` argument, ``REPRO_JOBS`` environment variable,
default ``os.cpu_count()``) with results identical to a serial run.
"""

from __future__ import annotations

import os
import time
import uuid
import warnings
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from dataclasses import dataclass, field, fields, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.circuits.blocks import build_block_models
from repro.cpu.config import CPUConfig, paper_configurations
from repro.cpu.results import SimulationResult
from repro.experiments.cache import (
    ResultCache,
    env_positive_number,
    simulation_key,
    thermal_key,
    trace_store_key,
    transient_key,
)
from repro.experiments.executor import Executor, PoolTask, Started, chunks
from repro.experiments.resolver import Resolver
from repro.floorplan import Floorplan, planar_floorplan, stacked_floorplan
from repro.power.model import (
    PowerBreakdown,
    PowerModel,
    StackKind,
    calibrate_activity_scale,
)
from repro.thermal.power_map import build_power_map, rasterize
from repro.thermal.solver import FACTORIZATION_STATS, ThermalResult, ThermalSolver
from repro.thermal.stack import planar_stack, stacked_3d_stack
from repro.thermal.transient import (
    STEP_FACTORIZATION_STATS,
    PowerSchedule,
    TransientResult,
    TransientThermalSolver,
    step_matrix_key,
)

if TYPE_CHECKING:
    from repro.isa.compiled import CompiledTrace

#: The power/thermal reference application (the paper's peak-power app).
REFERENCE_BENCHMARK = "mpeg2"
#: Number of cores on the chip (Table 1 context / Figure 9).
CORE_COUNT = 2

#: Environment variable setting the default simulation worker count.
ENV_JOBS = "REPRO_JOBS"

#: Per-task deadline (seconds) for pool workers; unset/empty = no deadline.
#: A worker that exceeds it is presumed hung (deadlock, livelock): its
#: task re-enters the retry ladder and the pool is recycled.
ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT_S"

#: Distinct geometries the steady part of a thermal dispatch
#: (:meth:`ExperimentContext.start_thermal`) needs before it fans out to
#: worker processes.  Below this the parent solves those groups inline
#: at ``result()``: a worker cannot return its SuperLU handle, so small
#: dispatches would pay a pool spin-up *and* leave the context's solver
#: unfactorized, and later solves of that geometry (DVFS points, leakage
#: feedback) reuse the solver's own factors only when it solved inline.
#: The transient part is not gated: no report section reuses a step
#: matrix, so with ``jobs > 1`` every transient group pools, in the same
#: pool as any pooled steady groups (a pool of a single task still runs
#: inline; see :meth:`Executor.start`).  Read when used, so a test can
#: lower it with ``monkeypatch.setattr`` on this module.
THERMAL_PARALLEL_MIN_GROUPS = 3

#: Back-solves one factorization costs about as much as (grid-48 3D
#: stack: 0.63 s to factorize, 0.043 s per right-hand side).
FACTORIZATION_RHS = 15

#: Configuration labels -> whether they are evaluated as a 3D stack.
CONFIG_STACKS: Dict[str, StackKind] = {
    "Base": StackKind.PLANAR_2D,
    "TH": StackKind.PLANAR_2D,
    "Pipe": StackKind.PLANAR_2D,
    "Fast": StackKind.PLANAR_2D,
    "3D": StackKind.STACKED_3D,
    "3D-noTH": StackKind.STACKED_3D,
}

#: :class:`ContextStats` fields left out of :meth:`ContextStats.as_dict`
#: (``stage_seconds`` is added there, sorted and rounded).
_UNREPORTED = frozenset({"stage_seconds", "events", "batch_id", "_batch_seq"})

#: A run's configuration: a label of :data:`CONFIG_STACKS` or an
#: ad-hoc :class:`CPUConfig`.
SimSpec = Union[str, CPUConfig]

#: Sentinel: "build the default cache from the environment".
_AUTO_CACHE = object()


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs trading fidelity for runtime."""

    trace_length: int = 20_000
    warmup: int = 6_000
    #: None = the full 24-benchmark suite
    benchmarks: Optional[Tuple[str, ...]] = None
    #: thermal grid resolution (over the spreader footprint)
    thermal_grid: int = 64

    def benchmark_list(self) -> List[str]:
        if self.benchmarks is not None:
            return list(self.benchmarks)
        from repro.workloads.suite import benchmark_names

        return benchmark_names()


@dataclass
class ContextStats:
    """Where this context's results came from, and what it took to get them.

    Besides provenance counters (simulated vs disk hits) this carries the
    robustness telemetry of the fault-tolerant executor: how many task
    submissions worker pools saw, how often tasks were retried, how often
    a broken pool was restarted, how many tasks ended up running serially
    in-process, and wall-clock per pipeline stage.  ``events`` is an
    append-only log of the individual robustness incidents and pool
    starts, emitted by ``repro report --log-json``.
    """

    #: correlation id of the owning context, stamped on every event
    run_id: str = ""
    #: simulations actually executed (serial or in workers)
    simulated: int = 0
    #: simulation results served from the on-disk cache
    sim_disk_hits: int = 0
    #: thermal maps actually solved (factorize and/or backsubstitute)
    thermal_solved: int = 0
    #: thermal maps served from the on-disk cache
    thermal_disk_hits: int = 0
    #: task submissions handed to worker pools (includes resubmissions)
    tasks_run: int = 0
    #: tasks resubmitted to a pool after an in-task exception
    task_retries: int = 0
    #: tasks that exceeded their REPRO_TASK_TIMEOUT_S deadline
    task_timeouts: int = 0
    #: fresh pools created after a broken or hung one
    pool_restarts: int = 0
    #: tasks that gave up on pools and ran serially in this process
    serial_fallbacks: int = 0
    #: times this process waited on another process's cache claim
    claim_waits: int = 0
    #: results obtained from another process's simulation via a claim wait
    claim_dedup: int = 0
    #: stale or expired claims this process took over
    claim_takeovers: int = 0
    #: taken-over keys simulated *during* a claim wait (work stealing)
    claim_steals: int = 0
    #: traces generated by the emulator in this process
    traces_generated: int = 0
    #: compiled traces served from the on-disk trace store
    trace_cache_hits: int = 0
    #: committed instructions simulated in this process (incl. warmup)
    instructions_simulated: int = 0
    #: geometry groups dispatched by the thermal solve engine
    thermal_groups: int = 0
    #: geometry groups factorized+solved in pool workers (vs inline)
    thermal_worker_groups: int = 0
    #: SuperLU factorizations performed inside thermal workers
    thermal_worker_factorizations: int = 0
    #: transient runs stepped by :meth:`transient_many`
    transient_runs: int = 0
    #: transient runs served from the on-disk cache
    transient_disk_hits: int = 0
    #: step-matrix groups dispatched by the transient engine
    transient_groups: int = 0
    #: step-matrix groups stepped in pool workers (vs inline)
    transient_worker_groups: int = 0
    #: implicit-Euler steps integrated (per run, so K lock-stepped runs
    #: of S steps count K*S)
    transient_steps: int = 0
    #: step-matrix factorizations performed inside transient workers
    transient_worker_factorizations: int = 0
    #: interval power traces extracted (simulated with capture + binned)
    intervals_extracted: int = 0
    #: interval power traces served from the on-disk cache
    interval_disk_hits: int = 0
    #: leakage-temperature fixed points served from the on-disk cache
    leakage_disk_hits: int = 0
    #: accumulated wall-clock per pipeline stage (e.g. simulate, thermal)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: robustness incidents and pool starts, in order
    #: ({"event": ..., **detail})
    events: List[dict] = field(default_factory=list)
    #: correlation id of the in-flight worker batch (None between batches)
    batch_id: Optional[str] = None
    _batch_seq: int = 0

    def add_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    @contextmanager
    def batch(self, batch_id: Optional[str] = None) -> Iterator[str]:
        """Scope events to a batch and yield its id.

        Enters ``batch_id`` when given (a started run resuming its own
        batch), else joins the open batch, else opens a fresh one.  The
        previous scope is restored on exit, so ``batch_id`` is None
        between batches.
        """
        outer = self.batch_id
        if batch_id is None:
            batch_id = outer
        if batch_id is None:
            self._batch_seq += 1
            batch_id = f"b{self._batch_seq:04d}"
        self.batch_id = batch_id
        try:
            yield batch_id
        finally:
            self.batch_id = outer

    def record_event(self, event: str, **detail) -> None:
        """Append one robustness incident, stamped for log correlation.

        Every event carries an ISO-8601 UTC timestamp, the context's
        ``run_id``, and the current ``batch_id`` (None outside a worker
        batch) so ``--log-json`` lines line up with external job-runner
        logs.
        """
        self.events.append({
            "event": event,
            "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
            "run_id": self.run_id,
            "batch_id": self.batch_id,
            **detail,
        })

    def as_dict(self) -> dict:
        """Telemetry payload for ``--stats`` files and the CI benchmark report.

        ``run_id`` and every counter field, then the derived simulation
        rate, the process-wide steady and step factorization counts
        (parent process only; worker-side factorizations are counted in
        the fields) and the sorted ``stage_seconds``, rounded to 3 places.
        """
        payload = {
            item.name: getattr(self, item.name)
            for item in fields(self) if item.name not in _UNREPORTED
        }
        payload.update(
            instructions_per_second=self.instructions_per_second(),
            **_factorization_counts(),
            stage_seconds={
                stage: round(seconds, 3)
                for stage, seconds in sorted(self.stage_seconds.items())
            },
        )
        return payload

    def instructions_per_second(self) -> float:
        """Simulated instructions per wall-clock second of the simulate
        stage (0.0 until something has been simulated)."""
        seconds = self.stage_seconds.get("simulate", 0.0)
        if not seconds or not self.instructions_simulated:
            return 0.0
        return round(self.instructions_simulated / seconds, 1)


def _all_configurations() -> Dict[str, CPUConfig]:
    """The five paper configurations plus the 3D-without-herding variant."""
    configs = {label: pc.config for label, pc in paper_configurations().items()}
    configs["3D-noTH"] = replace(configs["3D"], thermal_herding=False, name="3d-noth")
    return configs


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count: explicit argument > REPRO_JOBS > os.cpu_count()."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(ENV_JOBS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring invalid {ENV_JOBS}={env!r} (not an integer); "
                f"defaulting to os.cpu_count()={os.cpu_count()}",
                RuntimeWarning,
                stacklevel=3,
            )
    return os.cpu_count() or 1


def _factorization_counts() -> Dict[str, int]:
    """The parent's steady and step factorizations so far."""
    return {"factorizations": FACTORIZATION_STATS.factorizations,
            "step_factorizations": STEP_FACTORIZATION_STATS.factorizations}


def _simulate_task(
    trace: CompiledTrace,
    configs: Sequence[CPUConfig],
    warmup: int,
) -> List[SimulationResult]:
    """Worker entry point: run the parent's ``trace`` under each of
    ``configs``, in order.

    The trace arrives pickled, as its array and metadata only, so no
    worker re-runs the emulator.  Every config replays the same trace
    object, so its pre-decode and frontend/memory walks are built once
    per task rather than once per config.

    The fault point is a no-op unless a fault-injection token directory
    is armed (see :mod:`repro.experiments.faults`); the serial path calls
    :func:`repro.cpu.pipeline.simulate` directly and is never injected.
    """
    from repro.cpu.pipeline import simulate
    from repro.experiments.faults import maybe_inject_worker_fault

    maybe_inject_worker_fault()
    return [simulate(trace, config, warmup=warmup) for config in configs]


def _solve_cost(cells: int, rhs: int) -> float:
    """Relative run time of factorizing a ``cells``-unknown system and
    back-solving ``rhs`` right-hand sides against it.

    LU fill, and with it the cost of each solve, grows as ``cells**(4/3)``:
    the LU factors of the thermal conductance matrix occupy about
    ``100 * cells**(4/3)`` bytes (12 bytes per stored nonzero; measured
    952-3419 bytes/cell over 4k-65k cell systems across the planar and
    3D stacks, with the 4/3 exponent fitting the observed growth of
    fill-in with system size).  One factorization costs about
    :data:`FACTORIZATION_RHS` back-solves.
    """
    return cells ** (4.0 / 3.0) * (FACTORIZATION_RHS + rhs)


def _thermal_cells(solver: ThermalSolver) -> int:
    """Unknown count of one geometry's linear system."""
    return len(solver.stack.layers) * solver.ny * solver.nx


def _step_group(solver: ThermalSolver, req: "TransientRequest",
                schedules: List) -> Tuple[List[TransientResult], List[dict]]:
    """Step one transient group in this process: its results, and each
    schedule's stats."""
    results = TransientThermalSolver(solver, dt_s=req.dt_s).run_many(
        schedules, req.duration_s, initial_k=req.initial_k)
    return results, [s.stats() for s in schedules]


@dataclass(frozen=True)
class _GroupKind:
    """What differs between steady and transient group dispatch."""

    #: names the stage, the ``<prefix>_group`` events and the
    #: ``<prefix>_groups``, ``_worker_groups`` and ``_worker_factorizations``
    #: counters
    prefix: str
    pool: str  # the pool's kind in events
    #: the supervised entry point, looked up at dispatch time so that a
    #: replaced or wrapped entry point is the one pickled
    task: str
    factorizations: str  # the task's worker-stats key of its factorizations


_STEADY = _GroupKind("thermal", "thermal solve", "solve_group_task",
                     "factorizations")
_TRANSIENT = _GroupKind("transient", "transient step", "transient_group_task",
                        "step_factorizations")


@dataclass
class _Group:
    """One geometry's thermal work: the pool task's arguments after the
    solver's geometry, and ``run()``, which computes inline what the task
    returns ahead of its worker stats."""

    kind: _GroupKind
    solver: ThermalSolver
    args: tuple
    run: Callable[[], tuple]
    detail: Dict[str, object]  # labels its events and its pool task
    rhs: int  # right-hand sides: steps times runs, for a transient group

    def cost(self) -> float:
        return _solve_cost(_thermal_cells(self.solver), self.rhs)


class ThermalRun:
    """Thermal groups begun now and finished by :meth:`result`.

    ``parts`` are (groups, poolable) pairs.  With ``jobs > 1`` the groups
    of poolable parts are submitted to one pool, costliest first, as the
    run is made.  :meth:`result` runs the other groups inline while the
    workers run, collects the pool, and returns ``finish`` of every
    group's outputs (without its worker stats), in order, once.  Each
    group is logged as a ``<prefix>_group`` event saying where it ran and
    for how long; a run with a pool scopes its events to the pool's batch
    id.  :meth:`cancel` kills any workers and calls ``release``.
    """

    def __init__(self, context: "ExperimentContext",
                 parts: Sequence[Tuple[List[_Group], bool]],
                 finish: Callable[[List[tuple]], object],
                 release: Callable[[], None] = lambda: None):
        self._stats = stats = context.stats
        self._finish: Optional[Callable] = finish
        self._release = release
        self._value = None
        self._groups = [group for groups, _ in parts for group in groups]
        pooled = [context.jobs > 1 and poolable
                  for groups, poolable in parts for _ in groups]
        self._order = sorted((i for i, pool in enumerate(pooled) if pool),
                             key=lambda i: -self._groups[i].cost())
        for group in self._groups:
            self._count(group, "groups", 1)
        self._pool: Optional[Started] = None
        if not self._order:
            return
        # Workers assemble and factorize with scipy in the supervised
        # entry points.  Importing both here, before the pool forks, lets
        # every worker inherit them instead of importing its own copy.
        import scipy.sparse.linalg  # noqa: F401

        from repro.experiments import supervised

        start = time.perf_counter()
        self._pool = context._executor().start([
            PoolTask(
                fn=getattr(supervised, group.kind.task),
                args=(group.solver.stack, group.solver.floorplan,
                      group.solver.nx, group.solver.ny,
                      group.solver.spreader_mm) + group.args,
                serial=lambda g=group: g.run() + (None,),
                detail=group.detail,
            )
            for group in (self._groups[i] for i in self._order)
        ], " + ".join(dict.fromkeys(self._groups[i].kind.pool
                                    for i in sorted(self._order))))
        stats.add_stage("thermal", time.perf_counter() - start)

    def result(self):
        """Run, collect and finish the groups (once); the outcome."""
        if self._finish is not None:
            finish, self._finish = self._finish, None
            scope = (nullcontext() if self._pool is None
                     else self._stats.batch(self._pool.batch_id))
            with scope:
                try:
                    outs = self._collect()
                except BaseException:
                    self._abandon()
                    raise
                self._value = finish(outs)
        return self._value

    def cancel(self) -> None:
        """Abandon the run; a no-op once :meth:`result` has returned."""
        if self._finish is not None:
            self._finish = None
            self._abandon()

    def _abandon(self) -> None:
        try:
            if self._pool is not None:
                self._pool.cancel()
        finally:
            self._release()

    def _count(self, group: _Group, counter: str, amount: int) -> None:
        name = f"{group.kind.prefix}_{counter}"
        setattr(self._stats, name, getattr(self._stats, name) + amount)

    def _record(self, group: _Group, where: str, seconds) -> None:
        self._stats.record_event(f"{group.kind.prefix}_group", **group.detail,
                                 where=where, seconds=seconds)

    def _collect(self) -> List[tuple]:
        stats = self._stats
        outs: List[Optional[tuple]] = [None] * len(self._groups)
        inline = dict.fromkeys((group.kind.prefix for group in self._groups),
                               0.0)
        pooled = set(self._order)
        for index, group in enumerate(self._groups):
            if index not in pooled:
                start = time.perf_counter()
                outs[index] = group.run() + (None,)
                seconds = time.perf_counter() - start
                inline[group.kind.prefix] += seconds
                self._record(group, "inline", round(seconds, 3))
        if self._pool is not None:
            start = time.perf_counter()
            for index, out in zip(self._order, self._pool.result()):
                outs[index] = out
            stats.add_stage("thermal", time.perf_counter() - start)
            for index in sorted(self._order):
                group, worker_stats = self._groups[index], outs[index][-1]
                if worker_stats is not None:
                    self._count(group, "worker_groups", 1)
                    self._count(group, "worker_factorizations",
                                worker_stats.get(group.kind.factorizations, 0))
                self._record(group,
                             "inline" if worker_stats is None else "worker",
                             (worker_stats or {}).get("seconds"))
        for stage, seconds in inline.items():
            stats.add_stage(stage, seconds)
        return [out[:-1] for out in outs]


class ExperimentContext:
    """Memoizing facade over the whole simulation pipeline."""

    def __init__(
        self,
        settings: Optional[ExperimentSettings] = None,
        *,
        jobs: Optional[int] = None,
        cache=_AUTO_CACHE,
    ):
        self.settings = settings or ExperimentSettings()
        self.configs = _all_configurations()
        self.jobs = _resolve_jobs(jobs)
        self.cache: Optional[ResultCache] = (
            ResultCache.from_env() if cache is _AUTO_CACHE else cache
        )
        self.stats = ContextStats()
        self.stats.run_id = uuid.uuid4().hex[:12]
        #: per-task deadline; None (the default) waits indefinitely
        self.task_timeout_s = env_positive_number(ENV_TASK_TIMEOUT)
        self._traces: Dict[str, CompiledTrace] = {}
        self._runs: Dict[Tuple[str, str], SimulationResult] = {}
        self._config_runs: Dict[Tuple[str, str], SimulationResult] = {}
        self._thermals: Dict[Tuple[str, str], ThermalResult] = {}
        self._powers: Dict[Tuple[str, str], PowerBreakdown] = {}
        self._sim_keys: Dict[Tuple[str, CPUConfig], str] = {}
        self._power_model: Optional[PowerModel] = None
        self._floorplans: Dict[StackKind, Floorplan] = {}
        self._solvers: Dict[StackKind, ThermalSolver] = {}

    def _executor(self) -> Executor:
        """The pool executor, under this context's task deadline."""
        return Executor(self.stats, self.jobs, self.task_timeout_s,
                        fork_detail=_factorization_counts)

    # ------------------------------------------------------------------ #

    def trace(self, benchmark: str) -> CompiledTrace:
        """The benchmark's trace: memo -> disk store -> generate.

        A store hit skips the emulator entirely — a config sweep (and
        every later process pointed at the same cache directory) pays
        for each workload's generation once.
        """
        trace = self._traces.get(benchmark)
        if trace is not None:
            return trace
        from repro.workloads.suite import fingerprint, generate

        store = key = None
        if self.cache is not None:
            store = self.cache.trace_store()
            key = trace_store_key(
                fingerprint(benchmark, self.settings.trace_length)
            )
            trace = store.load(key)
            if trace is not None:
                self.stats.trace_cache_hits += 1
        if trace is None:
            start = time.perf_counter()
            trace = generate(benchmark, length=self.settings.trace_length)
            # ``generate`` stage seconds count the emulator wherever it
            # runs — including nested inside the ``simulate`` stage on
            # cold sweeps — so the per-stage breakdown shows the next
            # bottleneck without re-profiling.
            self.stats.add_stage("generate", time.perf_counter() - start)
            self.stats.traces_generated += 1
            if store is not None:
                store.store(key, trace)
        self._traces[benchmark] = trace
        return trace

    def _config_for(self, config_label: str) -> CPUConfig:
        config = self.configs.get(config_label)
        if config is None:
            raise KeyError(
                f"unknown configuration {config_label!r}; "
                f"known: {', '.join(self.configs)}"
            )
        return config

    def _cache_key(self, benchmark: str, config: CPUConfig) -> str:
        """The run's :func:`simulation_key` under this context's settings,
        computed once per (benchmark, config)."""
        key = self._sim_keys.get((benchmark, config))
        if key is None:
            key = self._sim_keys[benchmark, config] = simulation_key(
                benchmark, config, self.settings.trace_length,
                self.settings.warmup,
            )
        return key

    def run(self, benchmark: str, config_label: str) -> SimulationResult:
        """The (cached) simulation of one benchmark under one configuration."""
        result = self._runs.get((benchmark, config_label))
        if result is None:
            self._prefetch_items([self._sim_item(benchmark, config_label)])
            result = self._runs[benchmark, config_label]
        return result

    def run_config(self, benchmark: str, config: CPUConfig) -> SimulationResult:
        """Like :meth:`run` for an ad-hoc configuration object.

        Used by sweeps (DVFS, roadmap stages, shared-L2 core pairing)
        whose configurations are not among the six labelled ones; results
        are memoized by content hash and persisted like labelled runs.
        """
        key = (benchmark, self._cache_key(benchmark, config))
        result = self._config_runs.get(key)
        if result is None:
            self._prefetch_items([self._sim_item(benchmark, config)])
            result = self._config_runs[key]
        return result

    # ------------------------------------------------------------------ #
    # Parallel prefetching

    def prefetch(self, items: Iterable[Tuple[str, SimSpec]]) -> None:
        """Materialize many runs, simulating misses in parallel.

        Each item is a benchmark with a configuration label (see
        :meth:`run`) or an ad-hoc configuration (see :meth:`run_config`);
        all misses resolve in one resolver pass, so in one pool.
        """
        self._prefetch_items(self._sim_item(benchmark, spec)
                             for benchmark, spec in items)

    def _sim_item(self, benchmark: str, spec: SimSpec) -> tuple:
        """The (memo, memo key, benchmark, config) work item of one run."""
        if isinstance(spec, str):
            return (self._runs, (benchmark, spec), benchmark,
                    self._config_for(spec))
        return (self._config_runs, (benchmark, self._cache_key(benchmark, spec)),
                benchmark, spec)

    def run_many(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], SimulationResult]:
        """Prefetch and return many labelled runs keyed by (benchmark, label)."""
        pairs = list(pairs)
        self.prefetch(pairs)
        return {pair: self.run(*pair) for pair in pairs}

    def _prefetch_items(self, items) -> None:
        """Resolve (memo, memo key, benchmark, config) work items through
        the claim-coordinated resolver, simulating the misses — across
        worker processes when more than one is pending and ``jobs``
        allows it."""
        resolver = Resolver(self.cache, self.stats)
        found = resolver.lookup(
            (
                (self._cache_key(benchmark, config), (benchmark, config),
                 memo, memo_key)
                for memo, memo_key, benchmark, config in items
                if memo_key not in memo
            ),
            SimulationResult,
        )
        resolver.settle(found, lambda: self._execute(found.claimed),
                        self._execute)
        self.stats.sim_disk_hits += found.hits

    def _execute(self, units) -> List[SimulationResult]:
        """Simulate the resolver's (benchmark, config) units, fanning out
        across processes when worthwhile; the simulation compute callback.

        The unit of fan-out is a trace: each benchmark's configs (in
        first-seen order) are cut into ``ceil(jobs / benchmarks)``
        contiguous chunks, and each chunk is one pool task that takes the
        parent's trace by value and pre-decodes it once for all of its
        configs.  Results come back in the order of ``units``.  The
        executor supplies the fault tolerance; a chunk's serial fallback
        simulates its configs in turn in this process.
        """
        # Imported here, before the pool forks, so that workers inherit
        # the timing core instead of compiling their own copy, and a run
        # that simulates nothing never loads it.
        from repro.cpu.pipeline import simulate

        tasks = [unit.work for unit in units]
        start = time.perf_counter()
        try:
            settings = self.settings
            by_benchmark: Dict[str, List[int]] = {}
            for index, (benchmark, _) in enumerate(tasks):
                by_benchmark.setdefault(benchmark, []).append(index)
            per_benchmark = -(-self.jobs // max(1, len(by_benchmark)))
            groups = [
                (benchmark, chunk)
                for benchmark, indices in by_benchmark.items()
                for chunk in chunks(indices, per_benchmark)
            ]
            pool_tasks = []
            for benchmark, chunk in groups:
                configs = [tasks[index][1] for index in chunk]
                trace = self.trace(benchmark)
                pool_tasks.append(PoolTask(
                    fn=_simulate_task,
                    args=(trace, configs, settings.warmup),
                    serial=(lambda t=trace, cs=configs: [
                        simulate(t, c, warmup=settings.warmup) for c in cs]),
                    detail={"benchmark": benchmark,
                            "configs": [c.name for c in configs]},
                ))
            results: List[SimulationResult] = [None] * len(tasks)
            group_results = self._executor().start(
                pool_tasks, "simulation").result()
            for (_, chunk), chunk_results in zip(groups, group_results):
                for index, result in zip(chunk, chunk_results):
                    results[index] = result
        finally:
            self.stats.add_stage("simulate", time.perf_counter() - start)
        self.stats.simulated += len(results)
        self.stats.instructions_simulated += (
            len(results) * settings.trace_length
        )
        return results

    # ------------------------------------------------------------------ #

    def power_model(self) -> PowerModel:
        """The power model calibrated on the reference baseline run."""
        if self._power_model is None:
            reference = self.run(REFERENCE_BENCHMARK, "Base")
            blocks = build_block_models()
            scale = calibrate_activity_scale(reference, blocks=blocks)
            self._power_model = PowerModel(blocks=blocks, activity_scale=scale)
        return self._power_model

    def power(self, benchmark: str, config_label: str) -> PowerBreakdown:
        """Per-core power of one benchmark under one configuration,
        evaluated once per (benchmark, label).  Every caller shares the
        breakdown, so none may change it."""
        breakdown = self._powers.get((benchmark, config_label))
        if breakdown is None:
            stack = CONFIG_STACKS[config_label]
            breakdown = self._powers[benchmark, config_label] = (
                self.power_model().evaluate(self.run(benchmark, config_label),
                                            stack))
        return breakdown

    def chip_power_watts(self, benchmark: str, config_label: str) -> float:
        """Total chip power with the benchmark replicated on every core."""
        return CORE_COUNT * self.power(benchmark, config_label).total_watts

    # ------------------------------------------------------------------ #

    def floorplan(self, stack: StackKind) -> Floorplan:
        plan = self._floorplans.get(stack)
        if plan is None:
            plan = (
                planar_floorplan(CORE_COUNT)
                if stack is StackKind.PLANAR_2D
                else stacked_floorplan(CORE_COUNT)
            )
            self._floorplans[stack] = plan
        return plan

    def solver(self, stack: StackKind) -> ThermalSolver:
        solver = self._solvers.get(stack)
        if solver is None:
            grid = self.settings.thermal_grid
            thermal_stack = planar_stack() if stack is StackKind.PLANAR_2D else stacked_3d_stack()
            solver = ThermalSolver(thermal_stack, self.floorplan(stack), grid, grid)
            self._solvers[stack] = solver
        return solver

    def thermal(self, benchmark: str, config_label: str) -> ThermalResult:
        """Thermal map with the benchmark replicated on every core."""
        key = (benchmark, config_label)
        result = self._thermals.get(key)
        if result is None:
            stack = CONFIG_STACKS[config_label]
            breakdown = self.power(benchmark, config_label)
            result = self.thermal_grouped(
                {stack: [([breakdown] * CORE_COUNT, 1.0)]}
            )[stack][0]
            self._thermals[key] = result
        return result

    def thermal_many(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], ThermalResult]:
        """Thermal maps for many (benchmark, config label) pairs.

        Pending simulations are prefetched in parallel, then all maps
        sharing a stack are solved as one batched right-hand-side call
        against that stack's already-LU-factorized solver.
        """
        pairs = list(pairs)
        if self._power_model is None:
            self.prefetch(pairs + [(REFERENCE_BENCHMARK, "Base")])
        else:
            self.prefetch(pairs)
        by_stack: Dict[StackKind, List[Tuple[str, str]]] = {}
        for pair in pairs:
            if pair in self._thermals or pair in by_stack.get(
                CONFIG_STACKS[pair[1]], ()
            ):
                continue
            by_stack.setdefault(CONFIG_STACKS[pair[1]], []).append(pair)
        solved = self.thermal_grouped({
            stack: [
                ([self.power(benchmark, label)] * CORE_COUNT, 1.0)
                for benchmark, label in group
            ]
            for stack, group in by_stack.items()
        })
        for stack, group in by_stack.items():
            for pair, result in zip(group, solved[stack]):
                self._thermals[pair] = result
        return {pair: self._thermals[pair] for pair in pairs}

    def thermal_grouped(
        self,
        requests_by_stack: Dict[StackKind, Sequence[Tuple[List[PowerBreakdown], float]]],
    ) -> Dict[StackKind, List[ThermalResult]]:
        """Thermal maps for (breakdowns, power scale) requests on several
        stacks at once — one thermal-engine dispatch for the whole grid.

        Submitting every stack's requests together lets the solve engine
        see all distinct geometries up front and fan their factorizations
        out across the worker pool (:meth:`solve_thermal_groups`) instead
        of blocking on one stack at a time.
        """
        groups: List[Tuple[ThermalSolver, List[Sequence]]] = []
        order: List[StackKind] = []
        for stack, requests in requests_by_stack.items():
            plan = self.floorplan(stack)
            solver = self.solver(stack)
            ny, nx = solver.chip_grid_shape()
            batches = []
            for breakdowns, power_scale in requests:
                watts = build_power_map(plan, breakdowns)
                if power_scale != 1.0:
                    watts = {key: value * power_scale
                             for key, value in watts.items()}
                batches.append(rasterize(plan, watts, nx, ny))
            groups.append((solver, batches))
            order.append(stack)
        solved = self.solve_thermal_groups(groups)
        return dict(zip(order, solved))

    def solve_thermal_groups(
        self,
        groups: Sequence[Tuple[ThermalSolver, Sequence[Sequence]]],
    ) -> List[List[ThermalResult]]:
        """The parallel thermal solve engine: many geometry groups at once.

        Each group is one solver (geometry) with its pending batches of
        per-die chip power grids.  Entries go through the claim-coordinated
        :class:`~repro.experiments.resolver.Resolver`, keyed by the
        solver's geometry fingerprint plus a content hash of the grids:
        deduplicated within the call, served from the on-disk cache when
        possible (so warm reruns do no thermal work), coordinated with
        peer processes through the claim protocol, and the misses are
        fanned out per *geometry* across the pool — each worker
        assembles, factorizes, and backsubstitutes every right-hand side
        for its geometry and ships the temperature arrays back (SuperLU
        handles never cross the process boundary).  Solves are
        deterministic, so results are byte-identical to the serial path.
        """
        return self.start_thermal(groups, []).result()[0]

    def start_thermal(
        self,
        groups: Sequence[Tuple[ThermalSolver, Sequence[Sequence]]],
        requests: Sequence["TransientRequest"],
    ) -> ThermalRun:
        """Steady geometry groups and transient requests in one dispatch,
        begun now and finished by ``result()``.

        Cache loads and claims happen now, and every miss becomes a
        geometry group (:meth:`solve_thermal_groups`,
        :meth:`transient_many`).  With ``jobs > 1`` the transient groups,
        and the steady ones when there are at least
        :data:`THERMAL_PARALLEL_MIN_GROUPS` of them, go to one pool, longest
        task first, so that the workers run while the caller carries on.
        ``result()`` runs the other groups inline, collects the pool,
        stores the results, settles the claims and returns the steady
        results per group and the transient outcomes per request;
        ``cancel()`` kills the workers and releases the claims.
        """
        groups = [(solver, list(batches)) for solver, batches in groups]
        steady: List[List[Optional[ThermalResult]]] = [
            [None] * len(batches) for _, batches in groups
        ]
        resolver = Resolver(self.cache, self.stats)
        found = resolver.lookup(
            (
                (thermal_key(solver, grids), (solver, grids), out, pos)
                for (solver, batches), out in zip(groups, steady)
                for pos, grids in enumerate(batches)
            ),
            ThermalResult,
        )
        solve, solved = self._steady_groups(found.claimed)
        transient, step, stepped = self._transient_groups(list(requests))

        def finish(outs: List[tuple]):
            resolver.settle(found, lambda: solved(outs[:len(solve)]),
                            self._solve_units)
            stepped(outs[len(solve):])
            self.stats.thermal_disk_hits += found.hits
            return steady, transient

        return ThermalRun(
            self,
            [(solve, len(solve) >= THERMAL_PARALLEL_MIN_GROUPS),
             (step, True)],
            finish,
            lambda: resolver.release(found.claimed),
        )

    def _steady_groups(self, units) -> Tuple[List[_Group], Callable]:
        """One group per geometry of the resolver's units, so that their
        right-hand sides share a factorization wherever the group runs,
        and the function from the groups' outputs to each unit's result,
        in order."""
        by_geometry: Dict[Tuple, list] = {}
        for unit in units:
            by_geometry.setdefault(unit.work[0].matrix_key(), []).append(unit)
        groups = []
        for members in by_geometry.values():
            solver = members[0].work[0]
            grids = [unit.work[1] for unit in members]
            groups.append(_Group(
                _STEADY, solver, (grids,),
                lambda s=solver, g=grids: (s.solve_many(g),),
                {"geometry": solver.geometry_id(), "batches": len(grids),
                 "cells": _thermal_cells(solver)},
                rhs=len(grids),
            ))

        def solved(outs: List[tuple]) -> List[ThermalResult]:
            by_key = {
                unit.key: result
                for members, (results,) in zip(by_geometry.values(), outs)
                for unit, result in zip(members, results)
            }
            self.stats.thermal_solved += sum(len(unit.targets)
                                             for unit in units)
            return [by_key[unit.key] for unit in units]

        return groups, solved

    def _solve_units(self, units) -> List[ThermalResult]:
        """Solve the resolver's units now, one result per unit in order:
        the compute of keys taken over from a peer.  Their groups pool
        only at :data:`THERMAL_PARALLEL_MIN_GROUPS` geometries."""
        groups, solved = self._steady_groups(units)
        return ThermalRun(
            self, [(groups, len(groups) >= THERMAL_PARALLEL_MIN_GROUPS)],
            solved,
        ).result()

    # ------------------------------------------------------------------ #

    def transient_many(
        self, requests: Sequence["TransientRequest"]
    ) -> List[Tuple[TransientResult, Dict[str, float]]]:
        """The transient co-simulation engine: many interval runs at once.

        Runs whose schedule supplies a
        :meth:`~repro.thermal.transient.PowerSchedule.cache_token` are
        content-addressed (:func:`~repro.experiments.cache.transient_key`):
        each is loaded from the on-disk cache first, and each miss is
        stored after it runs, so a fully warm call builds no transient
        solver and factorizes nothing.  The misses are grouped by
        step-matrix key — ``(geometry, heat capacities, dt)`` plus the
        shared integration window — and every group steps its runs in
        lock-step through one factorization with an ``(n, K)``
        right-hand-side matrix
        (:meth:`~repro.thermal.transient.TransientThermalSolver.run_many`).
        With ``jobs > 1`` groups are fanned out across the worker pool,
        with pickled copies of their schedules.  The factorization never
        crosses a process boundary; workers rebuild the solver from pure
        geometry, and stepping is deterministic, so pool results are
        byte-identical to inline ones.

        Returns, per request, the
        :class:`~repro.thermal.transient.TransientResult` and the
        schedule's accumulated stats (throttle duty counters and the
        like — pool workers mutate pickled schedule copies, so the stats
        travel back explicitly).  This is :meth:`start_thermal` with no
        steady groups, collected at once.
        """
        return self.start_thermal([], requests).result()[1]

    def _transient_groups(self, requests: List["TransientRequest"]):
        """Load the requests' cached outcomes and group the rest by step
        matrix: the outcome per request (None until stepped), the groups,
        and the function that places and stores the groups' outputs."""
        out: List[Optional[Tuple[TransientResult, Dict[str, float]]]] = (
            [None] * len(requests)
        )
        keys: Dict[int, str] = {}
        if self.cache is not None:
            for i, req in enumerate(requests):
                key = transient_key(self.solver(req.stack), req.dt_s,
                                    req.duration_s, req.initial_k, req.schedule)
                if key is not None:
                    keys[i] = key
            self.cache.touch(list(keys.values()))
        pending: Dict[Tuple, Tuple[ThermalSolver, TransientRequest,
                                   List[int], List]] = {}
        for i, req in enumerate(requests):
            solver = self.solver(req.stack)
            if i in keys:
                cached = self.cache.load(keys[i], tuple, touch=False)
                if cached is not None:
                    self.stats.transient_disk_hits += 1
                    out[i] = cached
                    del keys[i]
                    continue
            _, _, indices, schedules = pending.setdefault(
                (step_matrix_key(solver, req.dt_s), req.duration_s,
                 req.initial_k),
                (solver, req, [], []))
            indices.append(i)
            schedules.append(req.schedule)
        groups = []
        for solver, req, indices, schedules in pending.values():
            steps = max(1, int(round(req.duration_s / req.dt_s)))
            self.stats.transient_runs += len(indices)
            self.stats.transient_steps += steps * len(schedules)
            groups.append(_Group(
                _TRANSIENT, solver,
                (req.dt_s, schedules, req.duration_s, req.initial_k),
                lambda s=solver, r=req, sc=schedules: _step_group(s, r, sc),
                {"geometry": solver.geometry_id(), "runs": len(schedules),
                 "steps": steps},
                rhs=steps * len(schedules),
            ))

        def stepped(outs: List[tuple]) -> None:
            for (_, _, indices, _), (results, sched_stats) in zip(
                    pending.values(), outs):
                for i, result, stats in zip(indices, results, sched_stats):
                    out[i] = (result, stats)
                    if i in keys:
                        self.cache.store(keys[i], out[i])

        return out, groups, stepped


@dataclass
class TransientRequest:
    """One transient run for :meth:`ExperimentContext.transient_many`.

    Requests sharing ``(stack geometry, dt_s, duration_s, initial_k)``
    step in lock-step through one factorization; ``schedule`` supplies
    the per-step power grids, and is pickled when its group steps on a
    pool worker.
    """

    stack: StackKind
    schedule: PowerSchedule
    dt_s: float
    duration_s: float
    initial_k: Optional[float] = None
