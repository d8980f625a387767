"""Interval power/thermal co-simulation: time-resolved herding effects.

The steady-state experiments collapse each run into one average power
map, which hides exactly the dynamics thermal herding is meant to
control: bursty phases that push the stack past a thermal ceiling and
force dynamic thermal management (DTM) to throttle.  This experiment
closes the loop:

1. **Interval power extraction** — each benchmark run is bucketed into
   N-instruction intervals (:class:`~repro.cpu.wavefront.IntervalCapture`
   plus the vectorized :func:`~repro.cpu.wavefront.build_interval_series`
   binning, no per-instruction Python loop), and every interval is
   evaluated through the calibrated power model into per-die power
   grids.  The resulting :class:`IntervalPowerTrace` is content-addressed
   in the on-disk cache, so warm sweeps skip re-extraction entirely.
2. **Batched transient stepping** — the per-config traces drive
   temperature-reactive schedules through
   :meth:`~repro.experiments.context.ExperimentContext.start_transient_many`,
   which groups runs by step-matrix key and advances each group in
   lock-step through a single factorization with a multi-column
   right-hand side.  :func:`start_interval` returns once the groups are
   submitted, so pool workers step them while the caller carries on.
3. **DTM scenario** — every configuration runs twice: free-running, and
   under a thermal ceiling with a throttle governor
   (:class:`IntervalPowerSchedule`) that scales power whenever the
   previous step's die peak breaches the ceiling.  The throttle duty
   cycle measures how often DTM must act; comparing 3D against 3D-noTH
   shows thermal herding buying back throttle-free cycles.

All stepping is deterministic, so the report section is byte-identical
across serial/parallel runs, and a warm run re-simulates nothing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cpu.pipeline import TimingSimulator
from repro.cpu.predecode import predecode
from repro.cpu.wavefront import IntervalCapture, build_interval_series
from repro.experiments.cache import content_key, interval_trace_key
from repro.experiments.context import (
    CONFIG_STACKS,
    CORE_COUNT,
    REFERENCE_BENCHMARK,
    ExperimentContext,
    Started,
    TransientRequest,
)
from repro.power.model import StackKind
from repro.thermal.power_map import build_power_map, rasterize
from repro.thermal.transient import PowerSchedule

#: Default interval granularity (instructions per bucket).
DEFAULT_INTERVAL_INSTS = 2_000


@dataclass
class IntervalPowerTrace:
    """Per-interval per-die power grids of one (benchmark, config) run.

    ``die_grids[j]`` holds interval ``j``'s rasterized chip-window grids,
    one ``(cny, cnx)`` array per power-bearing layer in the stack's
    die-layer order; ``time_ns``/``chip_watts`` are the interval runtimes
    and total chip powers.  Instances are content-addressed in the result
    cache (:func:`~repro.experiments.cache.interval_trace_key`).
    """

    benchmark: str
    config_label: str
    stack: StackKind
    interval_insts: int
    time_ns: np.ndarray
    chip_watts: np.ndarray
    die_grids: List[List[np.ndarray]]

    def __len__(self) -> int:
        return len(self.die_grids)


def extract_interval_trace(
    context: ExperimentContext,
    benchmark: str,
    config_label: str,
    interval_insts: int = DEFAULT_INTERVAL_INSTS,
) -> IntervalPowerTrace:
    """Extract (or load) the interval power trace of one run.

    Re-runs the timing core with an :class:`IntervalCapture`; on a cache
    hit the simulator is never touched.
    """
    config = context._config_for(config_label)
    stack = CONFIG_STACKS[config_label]
    solver = context.solver(stack)
    model = context.power_model()
    key = None
    if context.cache is not None:
        key = interval_trace_key(
            context._cache_key(benchmark, config),
            interval_insts,
            model.activity_scale,
            CORE_COUNT,
            solver,
        )
        cached = context.cache.load(key, IntervalPowerTrace)
        if cached is not None:
            context.stats.interval_disk_hits += 1
            return cached

    start = time.perf_counter()
    pre = predecode(context.trace(benchmark))
    warmup = context.settings.warmup
    capture = IntervalCapture(interval_insts)
    result = TimingSimulator(config).run_compiled(
        pre, warmup=warmup, prewarm=True, capture=capture
    )
    series = build_interval_series(
        pre, config, warmup, True, capture, result.activity
    )
    breakdowns = model.evaluate_intervals(result, series, stack)
    cycles = np.asarray(series.cycles, dtype=np.int64)

    plan = context.floorplan(stack)
    ny, nx = solver.chip_grid_shape()
    time_ns = np.maximum(cycles, 1).astype(float) / result.clock_ghz
    chip_watts = np.empty(len(breakdowns), dtype=float)
    die_grids: List[List[np.ndarray]] = []
    for j, breakdown in enumerate(breakdowns):
        watts = build_power_map(plan, [breakdown] * CORE_COUNT)
        die_grids.append(rasterize(plan, watts, nx, ny))
        chip_watts[j] = CORE_COUNT * breakdown.total_watts
    trace = IntervalPowerTrace(
        benchmark=benchmark,
        config_label=config_label,
        stack=stack,
        interval_insts=interval_insts,
        time_ns=time_ns,
        chip_watts=chip_watts,
        die_grids=die_grids,
    )
    context.stats.intervals_extracted += len(die_grids)
    context.stats.add_stage("interval", time.perf_counter() - start)
    if key is not None:
        context.cache.store(key, trace)
    return trace


class IntervalPowerSchedule(PowerSchedule):
    """Loops an interval power trace, optionally under a DTM governor.

    The trace's intervals are laid out over one ``pass_s``-second pass
    with durations proportional to their simulated runtimes, and the
    pass repeats for as long as the integration runs — the stepper reads
    the interval active at each step's wall-clock position.

    With a ``ceiling_k`` the schedule models reactive throttling with
    hysteresis: when the previous step's die peak reaches the ceiling
    the governor engages and scales every grid by ``throttle_factor``;
    it disengages once the peak falls ``hysteresis_k`` below the
    ceiling.  :meth:`stats` reports the accumulated throttle duty, which
    the engine ships back across process boundaries.
    """

    def __init__(
        self,
        trace: IntervalPowerTrace,
        pass_s: float = 1.0,
        ceiling_k: Optional[float] = None,
        throttle_factor: float = 0.5,
        hysteresis_k: float = 2.0,
    ):
        if pass_s <= 0:
            raise ValueError(f"pass_s must be positive, got {pass_s}")
        self.trace = trace
        self.pass_s = float(pass_s)
        self.ceiling_k = None if ceiling_k is None else float(ceiling_k)
        self.throttle_factor = float(throttle_factor)
        self.hysteresis_k = float(hysteresis_k)
        weights = np.asarray(trace.time_ns, dtype=float)
        total = float(weights.sum())
        if total <= 0:
            weights = np.ones(len(trace.die_grids))
            total = float(len(trace.die_grids))
        self._cum = np.cumsum(weights / total) * self.pass_s
        self._engaged = False
        self.steps_total = 0
        self.steps_throttled = 0

    def interval_at(self, t_s: float) -> int:
        """Index of the interval active at wall-clock ``t_s``."""
        pos = math.fmod(t_s, self.pass_s)
        j = int(np.searchsorted(self._cum, pos, side="right"))
        return min(j, len(self._cum) - 1)

    def power_grids(self, t_s: float, prev_peak_k: float) -> Sequence[np.ndarray]:
        self.steps_total += 1
        grids = self.trace.die_grids[self.interval_at(t_s)]
        if self.ceiling_k is not None:
            if not self._engaged and prev_peak_k >= self.ceiling_k:
                self._engaged = True
            elif (
                self._engaged
                and prev_peak_k <= self.ceiling_k - self.hysteresis_k
            ):
                self._engaged = False
            if self._engaged:
                self.steps_throttled += 1
                # Never mutate the stored grids: the trace is shared
                # between the free-running and throttled schedules.
                return [g * self.throttle_factor for g in grids]
        return grids

    def cache_token(self) -> str:
        """Digest of the trace arrays, the governor parameters, and the
        governor state a run starts from (a reused schedule resumes its
        counters and hysteresis state)."""
        payload = {
            "kind": "interval_schedule",
            "pass_s": self.pass_s,
            "ceiling_k": self.ceiling_k,
            "throttle_factor": self.throttle_factor,
            "hysteresis_k": self.hysteresis_k,
            "state": [self._engaged, self.steps_total, self.steps_throttled],
            "intervals": len(self.trace.die_grids),
        }
        return content_key(payload, [
            self.trace.time_ns,
            *(grid for grids in self.trace.die_grids for grid in grids),
        ])

    def stats(self) -> Dict[str, float]:
        out = {
            "steps_total": float(self.steps_total),
            "steps_throttled": float(self.steps_throttled),
        }
        if self.steps_total:
            out["throttle_duty"] = self.steps_throttled / self.steps_total
        return out


@dataclass
class IntervalRow:
    """One configuration's free-running vs throttled outcome."""

    config: str
    intervals: int
    ceiling_k: float
    free_peak_k: float
    throttled_peak_k: float
    throttle_duty: float


@dataclass
class IntervalResult:
    """Interval co-simulation sweep across the paper's configurations."""

    benchmark: str
    interval_insts: int
    dt_s: float
    duration_s: float
    rows: List[IntervalRow] = field(default_factory=list)

    def row(self, config: str) -> IntervalRow:
        for row in self.rows:
            if row.config == config:
                return row
        raise KeyError(config)

    def format(self) -> str:
        lines = [
            f"interval co-simulation: {self.benchmark}, "
            f"{self.interval_insts}-inst intervals, "
            f"dt {self.dt_s * 1e3:.0f} ms over {self.duration_s:.1f} s",
            f"  {'config':<8s} {'ivals':>5s} {'free peak':>10s} "
            f"{'ceiling':>8s} {'dtm peak':>9s} {'duty':>6s}",
        ]
        for r in self.rows:
            lines.append(
                f"  {r.config:<8s} {r.intervals:>5d} "
                f"{r.free_peak_k:>8.1f} K {r.ceiling_k:>6.1f} K "
                f"{r.throttled_peak_k:>7.1f} K {r.throttle_duty:>5.1%}"
            )
        try:
            herded = self.row("3D")
            unherded = self.row("3D-noTH")
        except KeyError:
            return "\n".join(lines)
        if unherded.throttle_duty > herded.throttle_duty:
            lines.append(
                "thermal herding cuts the 3D throttle duty from "
                f"{unherded.throttle_duty:.1%} to {herded.throttle_duty:.1%}"
            )
        else:
            lines.append(
                f"3D throttle duty: {herded.throttle_duty:.1%} herded vs "
                f"{unherded.throttle_duty:.1%} unherded"
            )
        return "\n".join(lines)


def run_interval(*args, **kwargs) -> IntervalResult:
    """Run the interval co-simulation sweep and wait for it:
    :func:`start_interval` (same arguments) collected at once."""
    return start_interval(*args, **kwargs).result()


def start_interval(
    context: Optional[ExperimentContext] = None,
    benchmark: str = REFERENCE_BENCHMARK,
    interval_insts: int = DEFAULT_INTERVAL_INSTS,
    dt_s: float = 20e-3,
    duration_s: float = 4.0,
    pass_s: float = 1.0,
    ceiling_delta_k: float = 45.0,
    throttle_factor: float = 0.5,
    configs: Optional[Sequence[str]] = None,
) -> Started:
    """Start the interval co-simulation sweep; ``result()`` finishes it.

    Every configuration's interval trace drives two transient runs — one
    free-running, one throttled against ``ambient + ceiling_delta_k`` —
    and all runs dispatch through one
    :meth:`~repro.experiments.context.ExperimentContext.start_transient_many`
    call, so runs sharing a step matrix (all planar configurations, all
    3D configurations) step in lock-step through one factorization.  The
    ceiling is anchored to ambient rather than a steady-state solve, so
    warm report runs stay free of thermal solves.

    This call extracts the traces and submits the transient runs; with
    ``jobs > 1`` they step on pool workers while the caller does other
    work, and the handle's ``result()`` returns the
    :class:`IntervalResult`.
    """
    context = context or ExperimentContext()
    return Started(
        _interval_steps(context, benchmark, interval_insts, dt_s,
                        duration_s, pass_s, ceiling_delta_k,
                        throttle_factor, configs),
        context.stats,
    )


def _interval_steps(context, benchmark, interval_insts, dt_s, duration_s,
                    pass_s, ceiling_delta_k, throttle_factor, configs):
    """The generator behind :func:`start_interval`."""
    labels = list(configs) if configs is not None else list(context.configs)
    traces = [
        extract_interval_trace(context, benchmark, label, interval_insts)
        for label in labels
    ]
    requests: List[TransientRequest] = []
    ceilings: List[float] = []
    for label, trace in zip(labels, traces):
        stack = CONFIG_STACKS[label]
        ceiling = context.solver(stack).stack.ambient_k + ceiling_delta_k
        ceilings.append(ceiling)
        requests.append(TransientRequest(
            stack=stack,
            schedule=IntervalPowerSchedule(trace, pass_s=pass_s),
            dt_s=dt_s,
            duration_s=duration_s,
        ))
        requests.append(TransientRequest(
            stack=stack,
            schedule=IntervalPowerSchedule(
                trace,
                pass_s=pass_s,
                ceiling_k=ceiling,
                throttle_factor=throttle_factor,
            ),
            dt_s=dt_s,
            duration_s=duration_s,
        ))
    outcomes = yield from context.start_transient_many(requests)
    result = IntervalResult(
        benchmark=benchmark,
        interval_insts=interval_insts,
        dt_s=dt_s,
        duration_s=duration_s,
    )
    for i, (label, trace) in enumerate(zip(labels, traces)):
        free, _ = outcomes[2 * i]
        throttled, duty_stats = outcomes[2 * i + 1]
        result.rows.append(IntervalRow(
            config=label,
            intervals=len(trace),
            ceiling_k=ceilings[i],
            free_peak_k=max(free.peak_k),
            throttled_peak_k=max(throttled.peak_k),
            throttle_duty=duty_stats.get("throttle_duty", 0.0),
        ))
    return result
