"""The interval co-simulation overlapped with other work.

:func:`~repro.experiments.plan.run_plan` submits the interval section's
transient runs to pool workers, then runs every section's parent-side
``solve`` hook while they step.  A second section whose hook solves
three geometries (a pool dispatch of its own) is the overlap a report
runs.  These tests pin what that overlap must keep: results
byte-identical to a serial run even when a transient worker dies
mid-overlap, events scoped to each pool's own batch id, and no worker
left alive when the work is abandoned.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time

import numpy as np
import pytest

from repro.experiments import executor, faults, interval, report
from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.plan import Requirements, run_plan
from repro.power.model import StackKind
from repro.thermal.solver import ThermalSolver

SETTINGS = ExperimentSettings(
    trace_length=3_000,
    warmup=800,
    benchmarks=("mpeg2",),
    thermal_grid=16,
)
INTERVAL = 700
DT = 20e-3
DURATION = 0.4

#: Bound on waiting for a worker to claim a fault token.
CLAIM_BUDGET_S = 30.0

#: Bound on waiting for killed workers to be recorded as exited.
REAP_BUDGET_S = 5.0


def _three_geometries(context):
    """Three distinct geometries with one uniform power batch each."""
    planar = context.solver(StackKind.PLANAR_2D)
    solvers = [
        planar,
        context.solver(StackKind.STACKED_3D),
        ThermalSolver(planar.stack, planar.floorplan, 12, 12),
    ]
    groups = []
    for solver in solvers:
        ny, nx = solver.chip_grid_shape()
        dies = solver.stack.die_count
        groups.append((solver, [[np.full((ny, nx), 0.02)] * dies]))
    return groups


def _solve_three(context):
    return context.solve_thermal_groups(_three_geometries(context))


def _run(context, solve=_solve_three):
    """The interval section and a section whose ``solve`` hook runs
    ``solve(context)`` while the interval's transient pool steps;
    returns both rendered results."""
    return run_plan(context, [
        interval.requirements(context.settings, interval_insts=INTERVAL,
                              dt_s=DT, duration_s=DURATION),
        Requirements(render=lambda results: results.solved, solve=solve),
    ])


def _pickled(interval_result, thermal):
    """Result bytes, one pickle per result: a whole-list pickle would
    also encode which results share string objects, and that differs
    between inline and unpickled worker results."""
    return [pickle.dumps(interval_result)] + [
        pickle.dumps(result) for group in thermal for result in group
    ]


def _serial_outcome():
    return _pickled(*_run(ExperimentContext(SETTINGS, jobs=1, cache=None)))


def _wait_claimed(token_dir) -> None:
    deadline = time.monotonic() + CLAIM_BUDGET_S
    while faults.pending_tokens(token_dir):
        assert time.monotonic() < deadline, "no worker claimed the token"
        time.sleep(0.02)


class TestOverlap:
    def test_worker_kill_during_overlap_matches_serial(
        self, tmp_path, monkeypatch
    ):
        token_dir = tmp_path / "fault-tokens"
        faults.arm_thermal_worker_kills(token_dir, 1)
        monkeypatch.setenv(faults.ENV_FAULT_DIR, str(token_dir))
        context = ExperimentContext(SETTINGS, jobs=2, cache=None)
        monkeypatch.setattr(executor, "RETRY_BACKOFF_S", 0.01)

        def solve(context):
            # Only the transient workers are running: one of them claims
            # the kill token and dies while the parent goes on with
            # other work.
            _wait_claimed(token_dir)
            return _solve_three(context)

        outcome = _run(context, solve)

        assert context.stats.pool_restarts >= 1
        assert context.stats.transient_worker_groups == 2
        assert context.stats.thermal_worker_groups == 3
        assert _pickled(*outcome) == _serial_outcome()

    def test_events_keep_the_started_batch_id(self):
        context = ExperimentContext(SETTINGS, jobs=2, cache=None)
        during = []

        def solve(context):
            during.append(context.stats.batch_id)
            solved = _solve_three(context)
            during.append(context.stats.batch_id)
            return solved

        _run(context, solve)
        # The started transient pool's batch id scopes none of the
        # parent's work while it runs, nor anything after.
        assert during == [None, None]
        assert context.stats.batch_id is None

        def batches(event, **match):
            return {e["batch_id"] for e in context.stats.events
                    if e["event"] == event
                    and all(e.get(k) == v for k, v in match.items())}

        started = batches("pool_start", kind="transient step")
        assert len(started) == 1
        assert batches("transient_group", where="worker") == started
        thermal = batches("thermal_group", where="worker")
        assert len(thermal) == 1 and not thermal & started

    def test_transient_stage_excludes_the_overlap(self):
        context = ExperimentContext(SETTINGS, jobs=2, cache=None)
        begun = time.perf_counter()
        _run(context, lambda context: time.sleep(1.0))
        elapsed = time.perf_counter() - begun
        assert context.stats.stage_seconds["transient"] <= elapsed - 1.0


class TestCancel:
    def test_raising_section_leaves_no_worker(self, monkeypatch):
        before = set(multiprocessing.active_children())
        during = []

        def failing_section():
            during.extend(multiprocessing.active_children())
            raise RuntimeError("section failed")

        monkeypatch.setattr(report, "run_table2", failing_section)
        context = ExperimentContext(SETTINGS, jobs=2, cache=None)
        with pytest.raises(RuntimeError, match="section failed") as raised:
            report.generate_report(context)
        # The transient workers were alive while the section ran ...
        assert set(during) - before
        # ... and the report killed them on the way out, not the garbage
        # collector: the traceback still holds the report's frame.  The
        # pool's manager thread may be reaping the same children, so
        # allow it a moment to record their exit.
        assert raised.tb is not None
        deadline = time.monotonic() + REAP_BUDGET_S
        while set(multiprocessing.active_children()) - before:
            assert time.monotonic() < deadline, "a worker outlived the report"
            time.sleep(0.02)

    def test_cancel_after_result_is_a_no_op(self):
        context = ExperimentContext(SETTINGS, jobs=2, cache=None)
        started = context.start_thermal(_three_geometries(context), [])
        result = started.result()
        started.cancel()
        assert started.result() is result
