"""The parallel thermal solve engine: fan-out equivalence and faults.

The engine ships geometry groups to worker processes (assemble +
factorize + solve per group, temperatures back), so these tests pin the
properties that make that safe: results byte-identical to the serial
path, the inline gate for small dispatches, within-call deduplication,
claim coordination, recovery from thermal workers that die or hang
mid-batch, and worker tasks whose factorizations die with the task.
"""

from __future__ import annotations

import pickle
import time
import weakref

import numpy as np
import pytest

from repro.experiments import context as context_module
from repro.experiments import executor, faults, resolver
from repro.experiments.cache import ResultCache
from repro.experiments.context import (
    CORE_COUNT,
    ExperimentContext,
    ExperimentSettings,
    THERMAL_PARALLEL_MIN_GROUPS,
    TransientRequest,
)
from repro.experiments.sensitivity import run_sensitivity
from repro.experiments import supervised
from repro.experiments.supervised import solve_group_task, transient_group_task
from repro.floorplan import stacked_floorplan
from repro.power.model import StackKind
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import stacked_3d_stack
from repro.thermal.transient import ConstantPower, TransientThermalSolver

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm", "susan"),
    thermal_grid=32,
)

#: Both stacks, both benchmarks — the smallest grid that exercises more
#: than one packaging geometry in a single dispatch.
PAIRS = [("adpcm", "Base"), ("adpcm", "3D"), ("susan", "Base"), ("susan", "3D")]

#: Hard wall-clock budget for recovery tests: far above the configured
#: deadlines, far below "blocked forever".
RECOVERY_BUDGET_S = 60.0


def _same_thermal(a, b) -> bool:
    return (
        a.block_peak == b.block_peak
        and a.block_mean == b.block_mean
        and len(a.layer_temps) == len(b.layer_temps)
        and all(np.array_equal(x, y) for x, y in zip(a.layer_temps, b.layer_temps))
    )


def _parallel_context(monkeypatch, jobs: int = 2,
                      **overrides) -> ExperimentContext:
    context = ExperimentContext(TINY, jobs=jobs, cache=None)
    # Force the pool even for dispatches below the inline gate, so the
    # worker path is what actually runs.
    monkeypatch.setattr(context_module, "THERMAL_PARALLEL_MIN_GROUPS", 1)
    monkeypatch.setattr(executor, "RETRY_BACKOFF_S", 0.01)
    for name, value in overrides.items():
        setattr(context, name, value)
    return context


class TestParallelEquivalence:
    def test_worker_path_matches_serial(self, monkeypatch):
        """Pool-solved thermal maps are identical to in-process ones."""
        parallel = _parallel_context(monkeypatch, jobs=2)
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        fanned = parallel.thermal_many(PAIRS)
        inline = serial.thermal_many(PAIRS)
        assert parallel.stats.thermal_worker_groups >= 1
        assert parallel.stats.thermal_worker_factorizations >= 1
        for pair in PAIRS:
            assert _same_thermal(fanned[pair], inline[pair]), pair

    def test_sensitivity_fanout_matches_serial(self):
        """The sweep that motivated the engine: 10 geometries, one dispatch."""
        parallel = ExperimentContext(TINY, jobs=4, cache=None)
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        fanned = run_sensitivity(parallel)
        inline = run_sensitivity(serial)
        # Enough distinct geometries to clear the inline gate on its own.
        assert parallel.stats.thermal_worker_groups >= THERMAL_PARALLEL_MIN_GROUPS
        assert fanned.nominal_peak_k == inline.nominal_peak_k
        assert [(p.parameter, p.value, p.peak_k) for p in fanned.points] == \
            [(p.parameter, p.value, p.peak_k) for p in inline.points]


class TestDispatchPolicy:
    def test_few_geometries_stay_inline(self):
        """Below the gate the parent solves in-process, keeping its
        solvers' factors for later solves."""
        context = ExperimentContext(TINY, jobs=4, cache=None)
        context.thermal_many(PAIRS)  # two stacks -> two geometry groups
        assert context.stats.thermal_groups >= 2
        assert context.stats.thermal_worker_groups == 0
        groups = [e for e in context.stats.events if e["event"] == "thermal_group"]
        assert groups and all(e["where"] == "inline" for e in groups)

    def test_group_events_carry_geometry_detail(self, monkeypatch):
        context = _parallel_context(monkeypatch, jobs=2)
        context.thermal_many(PAIRS)
        groups = [e for e in context.stats.events if e["event"] == "thermal_group"]
        assert groups
        for event in groups:
            assert event["where"] in ("inline", "worker")
            assert event["batches"] >= 1
            assert event["cells"] > 0
            assert isinstance(event["geometry"], str) and event["geometry"]

    def test_duplicate_requests_solve_once(self):
        """Identical requests in one dispatch share a single solve."""
        context = ExperimentContext(TINY, jobs=1, cache=None)
        breakdown = context.power("adpcm", "Base")
        request = ([breakdown] * CORE_COUNT, 1.0)
        first, second = context.thermal_grouped(
            {StackKind.PLANAR_2D: [request, request]}
        )[StackKind.PLANAR_2D]
        assert first is second  # one unit scattered to both positions
        assert context.stats.thermal_solved == 2
        groups = [e for e in context.stats.events if e["event"] == "thermal_group"]
        assert len(groups) == 1 and groups[0]["batches"] == 1

    def test_mixed_dispatch_matches_serial(self):
        """Steady groups below the gate run inline while the transient
        groups of the same dispatch pool, with the serial bytes."""

        def dispatch(jobs):
            context = ExperimentContext(TINY, jobs=jobs, cache=None)
            groups = [(solver, _batches(solver)) for solver in (
                ThermalSolver(*_geometry(0.25)),
                ThermalSolver(*_geometry(0.5)),
            )]
            requests = [
                TransientRequest(
                    stack, ConstantPower(_batches(context.solver(stack), 1)[0]),
                    dt_s=2e-3, duration_s=0.02)
                for stack in (StackKind.PLANAR_2D, StackKind.STACKED_3D)
            ]
            steady, transient = context.start_thermal(groups, requests).result()
            return context, [pickle.dumps(result) for group in steady
                             for result in group] + [
                pickle.dumps(outcome) for outcome in transient]

        parallel, pooled = dispatch(2)
        _, inline = dispatch(1)
        assert len(pooled) == 6
        assert pooled == inline
        assert parallel.stats.thermal_worker_groups == 0
        assert parallel.stats.transient_worker_groups == 2


class TestThermalWorkerFaults:
    def _token_context(self, tmp_path, monkeypatch, **overrides):
        token_dir = tmp_path / "fault-tokens"
        monkeypatch.setenv(faults.ENV_FAULT_DIR, str(token_dir))
        return _parallel_context(monkeypatch, jobs=2, **overrides), token_dir

    def test_thermal_kill_mid_batch_recovers(self, tmp_path, monkeypatch):
        """A thermal worker dying mid-batch costs a retry, not the result."""
        context, token_dir = self._token_context(tmp_path, monkeypatch)
        faults.arm_thermal_worker_kills(token_dir, 1)
        fanned = context.thermal_many(PAIRS)
        assert faults.pending_tokens(token_dir) == []  # the kill happened
        assert context.stats.pool_restarts >= 1
        clean = ExperimentContext(TINY, jobs=1, cache=None)
        inline = clean.thermal_many(PAIRS)
        for pair in PAIRS:
            assert _same_thermal(fanned[pair], inline[pair]), pair

    def test_thermal_hang_reaped_by_deadline(self, tmp_path, monkeypatch):
        """A wedged thermal worker is reaped by the task deadline."""
        context, token_dir = self._token_context(tmp_path, monkeypatch,
                                                 task_timeout_s=1.5)
        faults.arm_thermal_worker_hangs(token_dir, 1)
        start = time.monotonic()
        fanned = context.thermal_many(PAIRS)
        assert time.monotonic() - start < RECOVERY_BUDGET_S
        assert faults.pending_tokens(token_dir) == []
        assert context.stats.task_timeouts >= 1
        clean = ExperimentContext(TINY, jobs=1, cache=None)
        inline = clean.thermal_many(PAIRS)
        for pair in PAIRS:
            assert _same_thermal(fanned[pair], inline[pair]), pair

    def test_thermal_tokens_ignored_by_simulation_workers(
        self, tmp_path, monkeypatch
    ):
        """Thermal-only tokens never fire on a simulation task."""
        context, token_dir = self._token_context(tmp_path, monkeypatch)
        tokens = faults.arm_thermal_worker_kills(token_dir, 1)
        context.prefetch(PAIRS)  # simulation-only fan-out
        assert context.stats.pool_restarts == 0
        assert faults.pending_tokens(token_dir) == tokens
        for token in tokens:
            token.unlink()


class TestClaimCoordination:
    def test_unclaimable_key_is_stolen_and_solved(self, tmp_path, monkeypatch):
        """A key whose claim cannot be won still resolves in this process."""
        cache = ResultCache(tmp_path / "cache")
        context = ExperimentContext(TINY, jobs=1, cache=cache)
        monkeypatch.setattr(resolver, "CLAIM_WAIT_S", 5.0)
        monkeypatch.setattr(resolver, "CLAIM_POLL_S", 0.01)
        context.power("adpcm", "Base")  # simulation claims settle first
        refused = []
        original = cache.try_claim

        def try_claim_once(key):
            if not refused:
                refused.append(key)
                return False  # lost the race; holder then vanishes
            return original(key)

        monkeypatch.setattr(cache, "try_claim", try_claim_once)
        result = context.thermal("adpcm", "Base")
        assert refused  # the refusal path actually ran
        assert context.stats.claim_waits == 1
        assert context.stats.claim_takeovers == 1
        assert context.stats.claim_steals == 1
        clean = ExperimentContext(TINY, jobs=1, cache=None)
        assert _same_thermal(result, clean.thermal("adpcm", "Base"))

    def test_warm_rerun_hits_disk_with_zero_solves(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = ExperimentContext(TINY, jobs=1, cache=ResultCache(cache_dir))
        cold.thermal_many(PAIRS)
        assert cold.stats.thermal_solved > 0
        warm = ExperimentContext(TINY, jobs=1, cache=ResultCache(cache_dir))
        warm.thermal_many(PAIRS)
        assert warm.stats.thermal_solved == 0
        assert warm.stats.thermal_disk_hits > 0
        assert "thermal" not in warm.stats.stage_seconds


class TestStagesAndStats:
    def test_stage_seconds_cover_the_whole_pipeline(self):
        context = ExperimentContext(TINY, jobs=1, cache=None)
        context.thermal_many([("adpcm", "Base")])
        for stage in ("generate", "simulate", "thermal"):
            assert stage in context.stats.stage_seconds, stage
            assert context.stats.stage_seconds[stage] >= 0.0

    def test_as_dict_surfaces_thermal_engine_counters(self):
        payload = ExperimentContext(TINY, cache=None).stats.as_dict()
        for counter in ("thermal_groups", "thermal_worker_groups",
                        "thermal_worker_factorizations", "factorizations",
                        "step_factorizations"):
            assert counter in payload, counter

    def test_worker_events_scoped_to_a_batch(self, monkeypatch):
        context = _parallel_context(monkeypatch, jobs=2)
        context.thermal_many(PAIRS)
        groups = [e for e in context.stats.events
                  if e["event"] == "thermal_group" and e["where"] == "worker"]
        assert groups
        for event in groups:
            assert event["run_id"] == context.stats.run_id
            assert event["batch_id"].startswith("b")


def _geometry(convection_k_per_w):
    """Solver constructor arguments of one small 3D geometry."""
    return (stacked_3d_stack(convection_k_per_w), stacked_floorplan(), 12, 12,
            20.0)


def _batches(solver, count=2):
    ny, nx = solver.chip_grid_shape()
    return [
        [np.full((ny, nx), 0.02 * (i + 1) + 0.01 * die)
         for die in range(solver.stack.die_count)]
        for i in range(count)
    ]


class TestWorkerTaskEviction:
    """A pool task's solver is a local of the task, so the LU factors it
    creates are freed when the task returns."""

    DT_S = 2e-3
    DURATION_S = 0.02

    def test_tasks_match_inline_and_free(self, monkeypatch):
        args = _geometry(0.25)
        batches = _batches(ThermalSolver(*args))
        schedules = [ConstantPower(grids) for grids in batches]
        inline = ThermalSolver(*args).solve_many(batches)
        inline_runs = TransientThermalSolver(
            ThermalSolver(*args), dt_s=self.DT_S
        ).run_many(schedules, self.DURATION_S)
        built = []

        def tracked(*solver_args):
            solver = ThermalSolver(*solver_args)
            built.append(weakref.ref(solver))
            return solver

        monkeypatch.setattr(supervised, "ThermalSolver", tracked)
        solved, stats = solve_group_task(*args, batches)
        runs, _, step_stats = transient_group_task(
            *args, self.DT_S, schedules, self.DURATION_S, None
        )

        assert stats["factorizations"] == 1
        assert step_stats["step_factorizations"] == 1
        assert len(built) == 2
        assert all(ref() is None for ref in built)
        for a, b in zip(solved, inline):
            assert a.block_peak == b.block_peak
            assert a.block_mean == b.block_mean
            assert [t.tobytes() for t in a.layer_temps] == [
                t.tobytes() for t in b.layer_temps
            ]
        for a, b in zip(runs, inline_runs):
            assert a.times_s == b.times_s
            assert a.peak_k == b.peak_k
            assert [t.tobytes() for t in a.final_layer_temps] == [
                t.tobytes() for t in b.final_layer_temps
            ]
