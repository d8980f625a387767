"""Shared experiment state: cached traces, runs, and calibrated models.

The paper's evaluation reuses the same simulation runs across figures
(e.g. mpeg2's Base run both anchors the 90 W power calibration and feeds
Figure 8); the context memoizes everything so the benchmark harness does
each piece of work once per process.

Two additional layers make repeated and large evaluations cheap:

* a **persistent on-disk cache** (:mod:`repro.experiments.cache`) keyed
  by a content hash of the benchmark, fidelity knobs, configuration, and
  generator/simulator versions, so repeated CLI/benchmark/report runs
  hit disk instead of re-simulating;
* a **parallel dispatcher**: :meth:`ExperimentContext.prefetch` fans
  pending simulations out across a :class:`ProcessPoolExecutor`
  (``jobs`` argument, ``REPRO_JOBS`` environment variable, default
  ``os.cpu_count()``).  Simulations are deterministic, so the parallel
  path produces results identical to the serial one.
"""

from __future__ import annotations

import math
import os
import time
import uuid
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone
from dataclasses import dataclass, field, fields, replace
from typing import (
    Callable,
    Dict,
    Generator,
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
from repro.cpu.pipeline import simulate
from repro.cpu.results import SimulationResult
from repro.experiments.cache import (
    DEFAULT_CLAIM_STALE_S,
    ResultCache,
    simulation_key,
    thermal_key,
    trace_store_key,
    transient_key,
)
from repro.floorplan import Floorplan, planar_floorplan, stacked_floorplan
from repro.isa.compiled import CompiledTrace
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
from repro.workloads.suite import benchmark_names, fingerprint, generate

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

#: Worker-pool attempts each task gets before it falls back to running
#: serially in this process (1 first try + N-1 retries on a fresh pool).
MAX_TASK_ATTEMPTS = 3

#: Broken-pool restarts per batch before the whole remainder goes serial.
MAX_POOL_RESTARTS = 3

#: Base of the bounded exponential backoff between pool restarts.
RETRY_BACKOFF_S = 0.05

#: Backoff ceiling — a restart never waits longer than this.
MAX_BACKOFF_S = 2.0

#: Bounded wait (seconds) on another process's cache claim before taking
#: over and simulating anyway (duplicate work beats waiting forever).
CLAIM_WAIT_S = 120.0

#: Poll interval while waiting on another process's claim.
CLAIM_POLL_S = 0.05

#: Distinct geometries a steady thermal dispatch needs before it fans
#: out to worker processes.  Below this the parent solves inline: a
#: worker cannot return its SuperLU handle, so small dispatches would
#: pay a pool spin-up *and* leave the context's solver unfactorized, and
#: later solves of that geometry (DVFS points, leakage feedback) reuse
#: the solver's own factors only when it solved inline.  Transient
#: dispatch is not gated: no report section reuses a step matrix, so
#: with ``jobs > 1`` every picklable schedule pools (a dispatch of a
#: single task still runs inline; see :meth:`ExperimentContext._pool_steps`).
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
    #: fresh pools created after a BrokenProcessPool (worker death)
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
            factorizations=FACTORIZATION_STATS.factorizations,
            step_factorizations=STEP_FACTORIZATION_STATS.factorizations,
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


def _env_positive_number(name: str) -> Optional[float]:
    """A positive number from the environment, or None (unset/invalid)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {name}={raw!r} (not a finite number)",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return value if value > 0 else None


def _simulate_task(
    benchmark: str,
    configs: Sequence[CPUConfig],
    trace_length: int,
    warmup: int,
    trace_file: Optional[str] = None,
) -> List[SimulationResult]:
    """Worker entry point: map in the compiled trace (or regenerate) once
    and run it under each of ``configs``, in order.

    ``trace_file`` points at the parent's stored compiled trace; the
    worker memory-maps it instead of re-running the emulator, so each
    task ships a file path rather than a pickled instruction list.  A
    damaged or vanished file degrades to regeneration — the emulator is
    deterministic, so every path yields the same trace.  Every config
    replays the same trace object, so its pre-decode and frontend/memory
    walks are built once per task rather than once per config.

    The fault point is a no-op unless a fault-injection token directory
    is armed (see :mod:`repro.experiments.faults`); the serial path calls
    :func:`repro.cpu.pipeline.simulate` directly and is never injected.
    """
    from repro.experiments.faults import maybe_inject_worker_fault

    maybe_inject_worker_fault()
    trace = None
    if trace_file is not None:
        from repro.isa.compiled import read_compiled, TraceReadError

        try:
            compiled = read_compiled(trace_file)
        except TraceReadError:
            pass
        else:
            if len(compiled) == trace_length and compiled.name == benchmark:
                trace = compiled
    if trace is None:
        trace = generate(benchmark, length=trace_length)
    return [simulate(trace, config, warmup=warmup) for config in configs]


def _chunks(items: List, count: int) -> List[List]:
    """``items`` cut into ``min(count, len(items))`` contiguous, non-empty
    runs whose lengths differ by at most one (longer runs first)."""
    count = max(1, min(count, len(items)))
    size, extra = divmod(len(items), count)
    runs, start = [], 0
    for index in range(count):
        end = start + size + (index < extra)
        runs.append(items[start:end])
        start = end
    return runs


@dataclass
class _PoolTask:
    """One unit of work for the fault-tolerant pool executor.

    ``fn(*args)`` runs in a worker process; ``serial()`` is the
    in-process fallback producing an identical result (every task is
    deterministic).  ``detail`` labels the task in robustness events,
    ``timeout_s`` is its per-attempt deadline and ``max_attempts`` its
    worker-pool attempt budget.

    A deadline runs from the attempt's submission, not from the
    collection of a started dispatch: a task that finished while the
    parent was busy elsewhere is collected normally, while one still
    running past its deadline times out as soon as collection starts.
    """

    fn: Callable
    args: tuple
    serial: Callable[[], object]
    detail: Dict[str, object]
    timeout_s: Optional[float] = None
    max_attempts: int = 1
    #: relative run time, for submitting the longest task first
    cost: float = 0.0


@dataclass
class _Batch:
    """Pool tasks a work generator yields; it is resumed with their outputs.

    Work generators (steady thermal solves, transient stepping) yield a
    batch, or ``None`` to pause until collection, instead of starting a
    pool themselves: :meth:`ExperimentContext._run` runs each batch on
    its own pool, while :meth:`ExperimentContext.start_thermal` merges
    the first batches of several generators into one pool.  The parent
    time either spends submitting and waiting on a batch is charged to
    ``stage``.
    """

    tasks: List[_PoolTask]
    kind: str
    stage: str


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


@dataclass
class _Unit:
    """One distinct cache key of a claim-coordinated lookup.

    ``work`` is what the compute callback needs, ``(benchmark, config)``
    or ``(solver, grids)``; the result goes to every ``container[slot]``
    in ``targets`` (a memo dict or a per-group result list).
    """

    key: str
    work: tuple
    targets: List[tuple] = field(default_factory=list)

    def place(self, result) -> None:
        for container, slot in self.targets:
            container[slot] = result


class Started:
    """Work begun now and finished later by :meth:`result`.

    ``steps`` is a generator that submits its pool work, yields once
    while the workers run, and returns its outcome when resumed.  The
    constructor advances it to that yield under a batch id (the open
    batch, else a fresh one); :meth:`result` re-enters the same batch
    and resumes it, so every event of the run carries the id and no
    other batch inherits it.  :meth:`cancel` closes the steps, killing
    any workers still running.
    """

    def __init__(self, steps: Generator, stats: ContextStats):
        self._steps: Optional[Generator] = steps
        self._stats = stats
        self._value = None
        with stats.batch() as self.batch_id:
            self._step()

    def result(self):
        """Resume the steps to completion (once) and return the outcome."""
        while self._steps is not None:
            self._step()
        return self._value

    def cancel(self) -> None:
        """Abandon the work; a no-op once :meth:`result` has returned."""
        if self._steps is not None:
            steps, self._steps = self._steps, None
            with self._stats.batch(self.batch_id):
                steps.close()

    def _step(self) -> None:
        try:
            with self._stats.batch(self.batch_id):
                next(self._steps)
        except StopIteration as stop:
            self._steps, self._value = None, stop.value


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
        #: fault-tolerance knobs (instance attributes so tests and callers
        #: can tighten them without touching the module-level defaults)
        self.max_task_attempts = MAX_TASK_ATTEMPTS
        self.max_pool_restarts = MAX_POOL_RESTARTS
        self.retry_backoff_s = RETRY_BACKOFF_S
        #: per-task deadline; None (the default) waits indefinitely
        self.task_timeout_s = _env_positive_number(ENV_TASK_TIMEOUT)
        #: distinct geometries a thermal dispatch needs to use the pool
        self.thermal_parallel_min_groups = THERMAL_PARALLEL_MIN_GROUPS
        #: cross-process claim coordination knobs
        self.claim_wait_s = CLAIM_WAIT_S
        self.claim_poll_s = CLAIM_POLL_S
        self.claim_stale_s = DEFAULT_CLAIM_STALE_S
        self._traces: Dict[str, CompiledTrace] = {}
        self._trace_files: Dict[str, Optional[str]] = {}
        self._runs: Dict[Tuple[str, str], SimulationResult] = {}
        self._config_runs: Dict[Tuple[str, str], SimulationResult] = {}
        self._thermals: Dict[Tuple[str, str], ThermalResult] = {}
        self._powers: Dict[Tuple[str, str], PowerBreakdown] = {}
        self._sim_keys: Dict[Tuple[str, CPUConfig], str] = {}
        self._power_model: Optional[PowerModel] = None
        self._floorplans: Dict[StackKind, Floorplan] = {}
        self._solvers: Dict[StackKind, ThermalSolver] = {}

    # ------------------------------------------------------------------ #

    def metrics(self) -> dict:
        """One scrapeable snapshot of this context's caches and telemetry.

        Combines the on-disk cache state (exact sizes from the cache's
        SQLite index, result and trace entries broken out), this
        process's cache hit/miss/eviction counters, the process-wide
        ``FACTORIZATION_STATS``, and :meth:`ContextStats.as_dict` (which
        carries ``stage_seconds``) — the payload behind
        ``python -m repro metrics`` and ``repro report --stats``.
        """
        from repro.experiments.metrics import metrics_snapshot

        return metrics_snapshot(context=self)

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
        store = key = None
        if self.cache is not None:
            store = self.cache.trace_store()
            key = trace_store_key(
                fingerprint(benchmark, self.settings.trace_length)
            )
            trace = store.load(key)
            if trace is not None:
                self.stats.trace_cache_hits += 1
                self._trace_files[benchmark] = os.fspath(store.npy_path(key))
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
                path = store.store(key, trace)
                self._trace_files[benchmark] = (
                    None if path is None else os.fspath(path)
                )
        self._traces[benchmark] = trace
        return trace

    def _trace_file(self, benchmark: str) -> Optional[str]:
        """The on-disk compiled trace workers should map, or ``None``
        (store disabled or unusable) — in which case workers regenerate
        the trace themselves."""
        self.trace(benchmark)
        return self._trace_files.get(benchmark)

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
        all misses resolve in one :meth:`_resolve`, so in one pool.
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
        the claim-coordinated loop (:meth:`_resolve`), simulating the
        misses — across worker processes when more than one is pending
        and ``jobs`` allows it."""
        self.stats.sim_disk_hits += self._resolve(
            (
                (self._cache_key(benchmark, config), (benchmark, config),
                 memo, memo_key)
                for memo, memo_key, benchmark, config in items
                if memo_key not in memo
            ),
            SimulationResult,
            self._simulate_units,
        )

    def _simulate_units(self, units: List[_Unit]) -> List[SimulationResult]:
        """The simulation compute callback of :meth:`_resolve`."""
        results = self._execute([unit.work for unit in units])
        self.stats.simulated += len(results)
        self.stats.instructions_simulated += (
            len(results) * self.settings.trace_length
        )
        return results

    # ------------------------------------------------------------------ #
    # Claim-coordinated lookups

    def _resolve(self, items: Iterable[Tuple[str, tuple, object, object]],
                 expected_type: type, compute) -> int:
        """:meth:`_resolve_steps` run to completion."""
        return self._run(self._resolve_steps(items, expected_type, compute))

    def _resolve_steps(self, items: Iterable[Tuple[str, tuple, object, object]],
                       expected_type: type, compute) -> Generator:
        """Serve (cache key, work, container, slot) items; return disk hits.

        The one lookup policy behind every cached simulation and steady
        thermal solve.  Items sharing a cache key are deduplicated into
        one :class:`_Unit`; each unit is loaded from the on-disk cache,
        else claimed and computed here — ``compute(units)`` returns
        their results in order, or a work generator that yields its pool
        :class:`_Batch` first — else, when a peer process holds its
        claim, waited on with the rest in one :meth:`_await_claims`.
        Every result is written to each of its unit's ``container[slot]``.
        A work generator: the claimed units' batch passes through it.
        """
        units: Dict[str, _Unit] = {}
        for key, work, container, slot in items:
            unit = units.get(key)
            if unit is None:
                unit = units[key] = _Unit(key, work)
            unit.targets.append((container, slot))
        hits = 0
        claimed: List[_Unit] = []
        waiting: List[_Unit] = []
        if self.cache is not None:
            self.cache.touch(list(units))
        for unit in units.values():
            if self.cache is not None:
                cached = self.cache.load(unit.key, expected_type, touch=False)
                if cached is not None:
                    hits += 1
                    unit.place(cached)
                    continue
                if not self.cache.try_claim(unit.key):
                    waiting.append(unit)
                    continue
            claimed.append(unit)
        yield from self._compute_units(claimed, compute)
        if waiting:
            self._await_claims(waiting, expected_type, compute)
        return hits

    def _compute_units(self, units: List[_Unit], compute) -> Generator:
        """Compute, place and store ``units``, then release their claims.

        Releasing is unconditional and safe: :meth:`ResultCache.
        release_claim` only removes claims this process holds, so a live
        peer's claim outlives an expired wait on it.  A work generator.
        """
        if not units:
            return
        try:
            results = compute(units)
            if isinstance(results, Generator):
                results = yield from results
            for unit, result in zip(units, results):
                unit.place(result)
                if self.cache is not None:
                    self.cache.store(unit.key, result)
        finally:
            if self.cache is not None:
                for unit in units:
                    self.cache.release_claim(unit.key)

    def _await_claims(self, waiting: List[_Unit], expected_type: type,
                      compute) -> None:
        """Collectively wait on peer-claimed units, stealing as we go.

        One bounded deadline covers the whole set (the peers run
        concurrently with each other, so their waits overlap).  Each poll
        sweeps every outstanding key: results that landed are adopted
        (``claim_dedup``), and abandoned claims — stale holder, or
        released without a stored result — are taken over and computed
        *immediately* (``claim_steals``), so this process does useful
        work while the remaining keys are still being waited on.  Keys
        still claimed when the deadline expires are computed
        uncoordinated (``wait_expired``; no claim of our own is taken).
        """
        cache = self.cache
        for unit in waiting:
            self.stats.claim_waits += 1
            self.stats.record_event("claim_wait", key=unit.key[:16])
        deadline = time.monotonic() + self.claim_wait_s
        while waiting:
            still: List[_Unit] = []
            takeovers: List[Tuple[_Unit, str]] = []
            for unit in waiting:
                # Read the claim before the result: a holder stores before
                # it releases, so a claim already gone here means its
                # result is loadable now or was never stored.
                stale = cache.claim_stale(unit.key, self.claim_stale_s)
                released = not stale and cache.claim_holder(unit.key) is None
                result = cache.load(unit.key, expected_type)
                if result is not None:
                    self.stats.claim_dedup += 1
                    self.stats.record_event("claim_dedup", key=unit.key[:16])
                    unit.place(result)
                    continue
                if stale:
                    cache.break_claim(unit.key)
                    reason = "stale"
                elif released:
                    # Holder released without storing (full disk, crash
                    # between release and store): claim and compute.
                    reason = "released"
                else:
                    still.append(unit)
                    continue
                cache.try_claim(unit.key)
                takeovers.append((unit, reason))
            steals = len(takeovers)
            if still and time.monotonic() >= deadline:
                takeovers += [(unit, "wait_expired") for unit in still]
                still = []
            for unit, reason in takeovers:
                self.stats.claim_takeovers += 1
                self.stats.record_event("claim_takeover", key=unit.key[:16],
                                        reason=reason)
            if steals:
                self.stats.claim_steals += steals
                self.stats.record_event("claim_steal", tasks=steals)
            self._run(self._compute_units([unit for unit, _ in takeovers],
                                          compute))
            waiting = still
            if waiting:
                time.sleep(self.claim_poll_s)

    # ------------------------------------------------------------------ #
    # Fault-tolerant execution

    def _execute(self, tasks: List[Tuple[str, CPUConfig]]) -> List[SimulationResult]:
        """Run simulations, fanning out across processes when worthwhile.

        The unit of fan-out is a trace: each benchmark's configs (in
        first-seen order) are cut into ``ceil(jobs / benchmarks)``
        contiguous chunks, and each chunk is one pool task that maps the
        trace and pre-decodes it once for all of its configs.  Results
        come back in the order of ``tasks``.

        The parallel path is fault tolerant: every task is tracked
        individually, completed results are never discarded, a dead
        worker (OOM kill, interpreter abort) only costs the tasks that
        had not finished — they are retried on a fresh pool with bounded
        exponential backoff — and tasks that keep failing run serially
        in this process.  A pool that keeps breaking degrades the whole
        remainder to serial execution with a warning.  Simulations are
        deterministic, so every recovery path yields results identical
        to a clean run; :class:`ContextStats` records what happened.
        """
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
                for chunk in _chunks(indices, per_benchmark)
            ]
            pool_tasks = []
            for benchmark, chunk in groups:
                configs = [tasks[index][1] for index in chunk]
                pool_tasks.append(_PoolTask(
                    fn=_simulate_task,
                    args=(benchmark, configs, settings.trace_length,
                          settings.warmup, self._trace_file(benchmark)),
                    serial=(lambda b=benchmark, cs=configs:
                            [self._run_serial(b, c) for c in cs]),
                    detail={"benchmark": benchmark,
                            "configs": [c.name for c in configs]},
                    timeout_s=self.task_timeout_s,
                    max_attempts=self.max_task_attempts,
                ))
            results: List[SimulationResult] = [None] * len(tasks)
            group_results = self._run_pool_tasks(pool_tasks, kind="simulation")
            for (_, chunk), chunk_results in zip(groups, group_results):
                for index, result in zip(chunk, chunk_results):
                    results[index] = result
            return results
        finally:
            self.stats.add_stage("simulate", time.perf_counter() - start)

    def _run_serial(self, benchmark: str, config: CPUConfig) -> SimulationResult:
        """One in-process simulation (also each step of a group task's
        serial fallback)."""
        return simulate(
            self.trace(benchmark), config, warmup=self.settings.warmup
        )

    def _new_pool(self, workers: int):
        try:
            from concurrent.futures import ProcessPoolExecutor
            return ProcessPoolExecutor(max_workers=workers)
        except (ImportError, NotImplementedError, OSError):
            return None  # restricted platforms: caller falls back to serial

    @staticmethod
    def _abandon_pool(pool, kill: bool = False) -> None:
        """Walk away from a broken or hung pool without blocking on it.

        ``kill`` additionally SIGTERMs and reaps the worker processes —
        a hung worker never exits on its own, and ``shutdown(wait=False)``
        would leak it for the lifetime of the campaign.
        """
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        if kill:
            for process in processes:
                try:
                    process.terminate()
                    process.join(timeout=5.0)
                except Exception:
                    pass

    def _serial_remainder(self, tasks, results, indices, reason: str,
                          kind: str):
        """Finish ``indices`` serially after the pool path was abandoned."""
        warnings.warn(
            f"{kind} worker pool unusable ({reason}); running "
            f"{len(indices)} remaining task(s) serially",
            RuntimeWarning,
            stacklevel=4,
        )
        self.stats.record_event("serial_degrade", kind=kind, reason=reason,
                                tasks=len(indices))
        for index in indices:
            results[index] = tasks[index].serial()
            self.stats.serial_fallbacks += 1

    def _run_pool_tasks(self, tasks: List[_PoolTask], kind: str) -> List:
        """Run :class:`_PoolTask` descriptors on a fault-tolerant pool and
        wait for them: :meth:`_start_pool_tasks` collected at once."""
        return self._start_pool_tasks(tasks, kind).result()

    def _start_pool_tasks(self, tasks: List[_PoolTask], kind: str) -> Started:
        """Create a pool and submit ``tasks``; ``result()`` collects them.

        The shared executor behind the simulation, thermal and transient
        fan-out.  Tasks carry their own deadlines and attempt budgets.
        A dispatch with one task, or on a single-job context, starts no
        pool: its tasks run inline at collection.
        """
        return Started(self._pool_steps(tasks, kind), self.stats)

    def _run_batch(self, batch: _Batch) -> List:
        """Run one :class:`_Batch` on its own pool and wait for it."""
        start = time.perf_counter()
        try:
            return self._run_pool_tasks(batch.tasks, batch.kind)
        finally:
            self.stats.add_stage(batch.stage, time.perf_counter() - start)

    def _run(self, work: Generator, value=None):
        """Drive a work generator to completion and return its value.

        ``work`` is resumed with ``value`` first; every :class:`_Batch` it
        yields then runs on its own pool, and the generator's handling of
        the outputs shares the pool's batch id.
        """
        try:
            batch = work.send(value)
            while True:
                if batch is None:
                    batch = work.send(None)
                    continue
                with self.stats.batch():
                    batch = work.send(self._run_batch(batch))
        except StopIteration as stop:
            return stop.value

    def _staged(self, work: Generator, stage: str) -> Generator:
        """``work`` with the parent time of its own steps charged to
        ``stage``: the time it is suspended on a batch is not (whatever
        runs the batch charges the pool's share to the batch's stage)."""
        value = None
        try:
            while True:
                start = time.perf_counter()
                try:
                    batch = work.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.stats.add_stage(stage, time.perf_counter() - start)
                value = yield batch
        finally:
            work.close()

    def _overlap(self, works: Sequence[Generator], stage: str) -> Generator:
        """:class:`Started` steps running several work generators at once.

        Each generator is advanced to its first :class:`_Batch`; all of
        them are submitted to one pool, costliest task first, and the
        steps yield while the workers run.  On collection every
        generator is resumed with its own outputs (later batches, if
        any, run on pools of their own) and the list of their return
        values is the result.  The parent time spent submitting and
        waiting on the shared pool is charged to ``stage``.
        """
        handle: Optional[Started] = None
        try:
            firsts: List[Tuple[int, Optional[_Batch]]] = []
            values: List = [None] * len(works)
            for index, work in enumerate(works):
                try:
                    firsts.append((index, next(work)))
                except StopIteration as stop:
                    values[index] = stop.value
            batches = [batch for _, batch in firsts if batch is not None]
            tasks = [task for batch in batches for task in batch.tasks]
            order = sorted(range(len(tasks)), key=lambda i: -tasks[i].cost)
            start = time.perf_counter()
            if tasks:
                handle = self._start_pool_tasks(
                    [tasks[i] for i in order],
                    " + ".join(dict.fromkeys(b.kind for b in batches)),
                )
            self.stats.add_stage(stage, time.perf_counter() - start)
            yield
            outs: List = [None] * len(tasks)
            if handle is not None:
                start = time.perf_counter()
                for i, out in zip(order, handle.result()):
                    outs[i] = out
                self.stats.add_stage(stage, time.perf_counter() - start)
            offset = 0
            for index, batch in firsts:
                value = None
                if batch is not None:
                    value = outs[offset:offset + len(batch.tasks)]
                    offset += len(batch.tasks)
                values[index] = self._run(works[index], value)
            return values
        finally:
            if handle is not None:
                handle.cancel()
            for work in works:
                work.close()

    def start_thermal(
        self,
        groups: Sequence[Tuple[ThermalSolver, Sequence[Sequence]]],
        requests: Sequence["TransientRequest"],
    ) -> Started:
        """Steady geometry groups and transient requests on one pool.

        The overlapped form of :meth:`solve_thermal_groups` and
        :meth:`transient_many` together: cache loads and claims
        happen now, and both kinds' misses go to one pool, longest task
        first, so that ``jobs`` workers run while the caller carries on.
        ``result()`` returns the steady results per group and the
        transient outcomes per request.
        """
        return Started(self._overlap(
            [self._steady_steps(groups), self._transient_steps(list(requests))],
            stage="thermal",
        ), self.stats)

    def _pool_steps(self, tasks: List[_PoolTask], kind: str) -> Generator:
        """The executor behind :meth:`_start_pool_tasks`: submit the first
        round, yield while the workers run, then wait, retry, restart a
        broken or hung pool, and fall back to serial runs as needed."""
        workers = max(1, min(self.jobs, len(tasks)))
        if workers <= 1:
            yield
            return [task.serial() for task in tasks]
        if kind != "simulation":
            # Thermal and transient workers assemble and factorize with
            # scipy.  Importing it here, before the fork, lets every
            # worker inherit it instead of importing its own copy.
            import scipy.sparse.linalg  # noqa: F401
        pool = self._new_pool(workers)
        if pool is None:
            self.stats.record_event("pool_unavailable", kind=kind,
                                    tasks=len(tasks))
            yield
            return [task.serial() for task in tasks]
        self.stats.record_event(
            "pool_start", kind=kind, workers=workers, tasks=len(tasks),
            factorizations=FACTORIZATION_STATS.factorizations,
            step_factorizations=STEP_FACTORIZATION_STATS.factorizations,
        )

        from concurrent.futures import wait as wait_futures
        from concurrent.futures.process import BrokenProcessPool

        results: List = [None] * len(tasks)
        attempts = [0] * len(tasks)
        pending = list(range(len(tasks)))
        restarts = 0
        first_round = True
        try:
            while pending:
                futures = {}
                deadlines = {}
                pool_broken = False
                pool_hung = False
                failed: List[int] = []
                for index in pending:
                    task = tasks[index]
                    try:
                        future = pool.submit(task.fn, *task.args)
                    except (BrokenProcessPool, RuntimeError):
                        # The pool broke under our feet; everything not
                        # yet submitted joins the retry set.
                        pool_broken = True
                        failed.append(index)
                        continue
                    futures[future] = index
                    if task.timeout_s is not None:
                        deadlines[future] = time.monotonic() + task.timeout_s
                self.stats.tasks_run += len(futures)
                if first_round:
                    # The workers run while the caller carries on;
                    # collection resumes here.
                    first_round = False
                    yield

                not_done = set(futures)
                while not_done:
                    timed = [deadlines[f] for f in not_done if f in deadlines]
                    if not timed:
                        done, not_done = wait_futures(not_done)
                    else:
                        done, not_done = wait_futures(
                            not_done,
                            timeout=max(0.0, min(timed) - time.monotonic()),
                        )
                    for future in done:
                        index = futures[future]
                        try:
                            results[index] = future.result()
                        except BrokenProcessPool:
                            pool_broken = True
                            failed.append(index)
                        except Exception as exc:  # in-task failure, pool alive
                            attempts[index] += 1
                            failed.append(index)
                            self.stats.record_event(
                                "task_error",
                                **tasks[index].detail,
                                attempt=attempts[index],
                                error=repr(exc),
                            )
                    if not timed:
                        continue
                    # Deadline sweep: any task past its deadline re-enters
                    # the retry ladder now.  One that cancels cleanly was
                    # only queued behind a stalled pool; one that does not
                    # is running on a hung worker, and the whole pool gets
                    # recycled once everything still live has drained.
                    now = time.monotonic()
                    for future in [f for f in not_done
                                   if deadlines.get(f, now + 1.0) <= now]:
                        index = futures[future]
                        not_done.discard(future)
                        attempts[index] += 1
                        failed.append(index)
                        self.stats.task_timeouts += 1
                        was_running = not future.cancel()
                        if was_running:
                            pool_hung = True
                        self.stats.record_event(
                            "task_timeout",
                            **tasks[index].detail,
                            attempt=attempts[index],
                            timeout_s=tasks[index].timeout_s,
                            running=was_running,
                        )
                if not failed:
                    break

                reason = "hung" if pool_hung else "broke"
                if pool_broken or pool_hung:
                    self._abandon_pool(pool, kill=pool_hung)
                    pool = None
                # Tasks that exhausted their budget fall back serially
                # inside the filter; restarting a pool for an empty retry
                # set would be pure churn, so filter first.
                retryable = self._filter_retryable(tasks, results, attempts,
                                                   failed)
                if not retryable:
                    break
                if pool is None:
                    if restarts >= self.max_pool_restarts:
                        self._serial_remainder(
                            tasks, results, retryable,
                            f"{reason} {restarts + 1} times", kind,
                        )
                        break
                    restarts += 1
                    self.stats.pool_restarts += 1
                    self.stats.record_event("pool_restart", kind=kind,
                                            restart=restarts, reason=reason,
                                            tasks=len(retryable))
                    time.sleep(min(MAX_BACKOFF_S,
                                   self.retry_backoff_s * 2 ** (restarts - 1)))
                    pool = self._new_pool(workers)
                    if pool is None:
                        self._serial_remainder(tasks, results, retryable,
                                               "could not be recreated", kind)
                        break
                    pending = retryable
                else:
                    # Pool is healthy: retry transient in-task failures on
                    # it (a genuine, deterministic error will surface from
                    # the serial run once attempts are exhausted).
                    self.stats.task_retries += len(retryable)
                    pending = retryable
        except GeneratorExit:
            # Cancelled before collection: nobody will read the results,
            # so do not wait for the workers to finish them.
            self._abandon_pool(pool, kill=True)
            pool = None
            raise
        finally:
            if pool is not None:
                pool.shutdown()
        return results

    def _filter_retryable(self, tasks: List[_PoolTask], results, attempts,
                          failed) -> List[int]:
        """Split failed indices into pool retries vs immediate serial runs.

        Tasks that exhausted their attempt budget (repeat raisers, repeat
        deadline overruns) run serially right here; the rest go back to
        the pool.
        """
        retryable: List[int] = []
        for index in failed:
            task = tasks[index]
            if attempts[index] < task.max_attempts:
                retryable.append(index)
            else:
                self.stats.record_event(
                    "serial_fallback",
                    **task.detail,
                    attempts=attempts[index],
                )
                results[index] = task.serial()
                self.stats.serial_fallbacks += 1
        return retryable

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
        per-die chip power grids.  Entries go through :meth:`_resolve`,
        keyed by the solver's geometry fingerprint plus a content hash
        of the grids: deduplicated within the call, served from the
        on-disk cache when possible (so warm reruns do no thermal work),
        coordinated with peer processes through the claim protocol, and
        the misses are fanned out per *geometry* across the pool — each
        worker assembles, factorizes, and backsubstitutes every
        right-hand side for its geometry and ships the temperature
        arrays back (SuperLU handles never cross the process boundary).
        Solves are deterministic, so results are byte-identical to the
        serial path.
        """
        return self._run(self._steady_steps(groups))

    def _steady_steps(
        self, groups: Sequence[Tuple[ThermalSolver, Sequence[Sequence]]],
    ) -> Generator:
        """The work generator behind :meth:`solve_thermal_groups`."""
        groups = [(solver, list(batches)) for solver, batches in groups]
        results: List[List[Optional[ThermalResult]]] = [
            [None] * len(batches) for _, batches in groups
        ]
        hits = yield from self._resolve_steps(
            (
                (thermal_key(solver, grids), (solver, grids), out, pos)
                for (solver, batches), out in zip(groups, results)
                for pos, grids in enumerate(batches)
            ),
            ThermalResult,
            self._solve_thermal_units,
        )
        self.stats.thermal_disk_hits += hits
        return results

    def _solve_thermal_units(self, units: List[_Unit]) -> Generator:
        """The steady compute callback of :meth:`_resolve_steps`."""
        return self._staged(self._thermal_unit_steps(units), "thermal")

    def _thermal_unit_steps(self, units: List[_Unit]) -> Generator:
        """Solve one unit per distinct thermal key, in order.

        Units sharing a geometry are merged into one group so their
        right-hand sides share a factorization wherever the group runs.
        """
        by_geometry: Dict[Tuple, List[_Unit]] = {}
        for unit in units:
            solver = unit.work[0]
            by_geometry.setdefault(solver.matrix_key(), []).append(unit)
        grouped = list(by_geometry.values())
        solved = yield from self._dispatch_thermal([
            (members[0].work[0], [unit.work[1] for unit in members])
            for members in grouped
        ])
        by_key = {}
        for members, outs in zip(grouped, solved):
            for unit, result in zip(members, outs):
                by_key[unit.key] = result
                self.stats.thermal_solved += len(unit.targets)
        return [by_key[unit.key] for unit in units]

    def _thermal_cells(self, solver: ThermalSolver) -> int:
        """Unknown count of one geometry's linear system."""
        return len(solver.stack.layers) * solver.ny * solver.nx

    def _dispatch_thermal(
        self, geometry_groups: List[Tuple[ThermalSolver, List[Sequence]]]
    ) -> Generator:
        """Solve geometry groups inline or across the worker pool.

        The pool path pays a spin-up and leaves the parent's solvers
        unfactorized for their later solves, so it only engages when
        several distinct geometries are pending
        (``thermal_parallel_min_groups``).  A work generator: the pool
        path yields its :class:`_Batch`.
        """
        use_pool = (
            self.jobs > 1
            and len(geometry_groups) >= self.thermal_parallel_min_groups
        )
        self.stats.thermal_groups += len(geometry_groups)
        if not use_pool:
            out = []
            for solver, grids in geometry_groups:
                t0 = time.perf_counter()
                out.append(solver.solve_many(grids))
                self.stats.record_event(
                    "thermal_group", geometry=solver.geometry_id(),
                    batches=len(grids), cells=self._thermal_cells(solver),
                    where="inline",
                    seconds=round(time.perf_counter() - t0, 3),
                )
            return out

        from repro.experiments.supervised import solve_group_task

        tasks = [
            _PoolTask(
                fn=solve_group_task,
                args=(solver.stack, solver.floorplan, solver.nx, solver.ny,
                      solver.spreader_mm, grids),
                serial=(lambda s=solver, g=grids: (s.solve_many(g), None)),
                detail={"geometry": solver.geometry_id(),
                        "batches": len(grids),
                        "cells": self._thermal_cells(solver)},
                timeout_s=self.task_timeout_s,
                max_attempts=self.max_task_attempts,
                cost=_solve_cost(self._thermal_cells(solver), len(grids)),
            )
            for solver, grids in geometry_groups
        ]
        outs = yield _Batch(tasks, kind="thermal solve", stage="thermal")
        results = []
        for (solver, grids), out in zip(geometry_groups, outs):
            solved, worker_stats = out
            if worker_stats is not None:
                self.stats.thermal_worker_groups += 1
                self.stats.thermal_worker_factorizations += (
                    worker_stats.get("factorizations", 0)
                )
            self.stats.record_event(
                "thermal_group", geometry=solver.geometry_id(),
                batches=len(grids), cells=self._thermal_cells(solver),
                where="inline" if worker_stats is None else "worker",
                seconds=(worker_stats or {}).get("seconds"),
            )
            results.append(solved)
        return results

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
        Groups are fanned out across the worker pool (the factorization
        never crosses a process boundary; workers rebuild the solver from
        pure geometry), and stepping is deterministic, so pool results
        are byte-identical to inline ones.

        Returns, per request, the
        :class:`~repro.thermal.transient.TransientResult` and the
        schedule's accumulated stats (throttle duty counters and the
        like — pool workers mutate pickled schedule copies, so the stats
        travel back explicitly).  :meth:`start_thermal` is the overlapped
        form.
        """
        return self._run(self._transient_steps(list(requests)))

    def _transient_steps(self, requests: List["TransientRequest"]) -> Generator:
        """The work generator behind :meth:`transient_many`."""
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
        groups: Dict[Tuple, dict] = {}
        order: List[dict] = []
        for i, req in enumerate(requests):
            solver = self.solver(req.stack)
            if i in keys:
                cached = self.cache.load(keys[i], tuple, touch=False)
                if cached is not None:
                    self.stats.transient_disk_hits += 1
                    out[i] = cached
                    del keys[i]
                    continue
            group_key = (step_matrix_key(solver, req.dt_s),
                         req.duration_s, req.initial_k)
            group = groups.get(group_key)
            if group is None:
                group = {"solver": solver, "req": req,
                         "indices": [], "schedules": []}
                groups[group_key] = group
                order.append(group)
            group["indices"].append(i)
            group["schedules"].append(req.schedule)
        if not order:
            return out
        self.stats.transient_runs += sum(len(g["indices"]) for g in order)
        solved = yield from self._staged(self._dispatch_transient(order),
                                         "transient")
        for group, (results, sched_stats) in zip(order, solved):
            for i, result, stats in zip(group["indices"], results, sched_stats):
                out[i] = (result, stats)
                if i in keys:
                    self.cache.store(keys[i], out[i])
        return out

    def _run_transient_group(
        self, group: dict
    ) -> Tuple[List[TransientResult], List[Dict[str, float]]]:
        """Inline path: step one group in-process, through one step-matrix
        factorization."""
        req = group["req"]
        transient = TransientThermalSolver(group["solver"], dt_s=req.dt_s)
        results = transient.run_many(
            group["schedules"], req.duration_s, initial_k=req.initial_k
        )
        return results, [
            s.stats() if isinstance(s, PowerSchedule) else {}
            for s in group["schedules"]
        ]

    def _dispatch_transient(self, groups: List[dict]) -> Generator:
        """Step groups inline or across the worker pool.

        With ``jobs > 1`` every group goes to the pool, provided every
        schedule is a picklable
        :class:`~repro.thermal.transient.PowerSchedule` (plain callables
        stay inline, and a lone task runs inline at collection).  A work
        generator: it yields its :class:`_Batch`, or ``None`` to step
        inline at collection.
        """
        self.stats.transient_groups += len(groups)
        steps_of = {}
        for group in groups:
            req = group["req"]
            steps = max(1, int(round(req.duration_s / req.dt_s)))
            steps_of[id(group)] = steps
            self.stats.transient_steps += steps * len(group["schedules"])
        use_pool = self.jobs > 1 and all(
            isinstance(schedule, PowerSchedule)
            for group in groups
            for schedule in group["schedules"]
        )
        if not use_pool:
            yield
            out = []
            for group in groups:
                t0 = time.perf_counter()
                out.append(self._run_transient_group(group))
                self.stats.record_event(
                    "transient_group",
                    geometry=group["solver"].geometry_id(),
                    runs=len(group["schedules"]),
                    steps=steps_of[id(group)],
                    where="inline",
                    seconds=round(time.perf_counter() - t0, 3),
                )
            return out

        from repro.experiments.supervised import transient_group_task

        tasks = []
        for group in groups:
            solver = group["solver"]
            req = group["req"]
            tasks.append(_PoolTask(
                fn=transient_group_task,
                args=(solver.stack, solver.floorplan, solver.nx, solver.ny,
                      solver.spreader_mm, req.dt_s, group["schedules"],
                      req.duration_s, req.initial_k),
                serial=(lambda g=group: self._run_transient_group(g) + (None,)),
                detail={"geometry": solver.geometry_id(),
                        "runs": len(group["schedules"]),
                        "steps": steps_of[id(group)]},
                timeout_s=self.task_timeout_s,
                max_attempts=self.max_task_attempts,
                cost=_solve_cost(self._thermal_cells(solver),
                                 steps_of[id(group)] * len(group["schedules"])),
            ))
        outs = yield _Batch(tasks, kind="transient step", stage="transient")
        results = []
        for group, out in zip(groups, outs):
            solved, sched_stats, worker_stats = out
            if worker_stats is not None:
                self.stats.transient_worker_groups += 1
                self.stats.transient_worker_factorizations += (
                    worker_stats.get("step_factorizations", 0)
                )
            self.stats.record_event(
                "transient_group",
                geometry=group["solver"].geometry_id(),
                runs=len(group["schedules"]),
                steps=steps_of[id(group)],
                where="inline" if worker_stats is None else "worker",
                seconds=(worker_stats or {}).get("seconds"),
            )
            results.append((solved, sched_stats))
        return results


@dataclass
class TransientRequest:
    """One transient run for :meth:`ExperimentContext.transient_many`.

    Requests sharing ``(stack geometry, dt_s, duration_s, initial_k)``
    step in lock-step through one factorization; ``schedule`` supplies
    the per-step power grids (a
    :class:`~repro.thermal.transient.PowerSchedule` or a plain
    ``power_fn(t)`` callable — the latter forces inline dispatch).
    """

    stack: StackKind
    schedule: object
    dt_s: float
    duration_s: float
    initial_k: Optional[float] = None
