"""Deadline supervision and adversarial injection: hangs must cost one
timeout, mid-simulation faults must never leak partial state.

PR 3 proved the engine survives *crashes*; these tests prove it survives
the nastier failure modes — a worker that never returns (deadlock /
livelock) and a worker that dies halfway through the simulation loop
with activity state partially written.  Every recovery path must
produce results identical to a clean serial run.
"""

from __future__ import annotations

import time
from datetime import datetime

import pytest

from repro.experiments import faults
from repro.experiments.context import (
    ENV_TASK_TIMEOUT,
    ExperimentContext,
    ExperimentSettings,
)

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm", "susan"),
    thermal_grid=32,
)

PAIRS = [("adpcm", "Base"), ("adpcm", "TH"), ("susan", "Base"), ("susan", "TH")]

#: Hard wall-clock budget for every supervised-recovery test: far above
#: the configured deadlines, far below "blocked forever".
RECOVERY_BUDGET_S = 60.0


def _fields(result):
    return {
        "benchmark": result.benchmark,
        "config": result.config_name,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "cpi_stack": result.cpi_stack,
        "herding": result.herding,
        "caches": {
            name: (stats.accesses, stats.misses)
            for name, stats in result.cache_stats.items()
        },
    }


def _supervised_context(tmp_path, monkeypatch, *, timeout_s=3.0, jobs=2):
    token_dir = tmp_path / "fault-tokens"
    monkeypatch.setenv(faults.ENV_FAULT_DIR, str(token_dir))
    context = ExperimentContext(TINY, jobs=jobs, cache=None)
    context.task_timeout_s = timeout_s
    context.retry_backoff_s = 0.01
    return context, token_dir


class TestHangSupervision:
    def test_hung_worker_recovers_within_deadline(self, tmp_path, monkeypatch):
        """A sleep-forever worker costs one timeout, not the whole batch."""
        context, token_dir = _supervised_context(tmp_path, monkeypatch)
        faults.arm_worker_hangs(token_dir, 1)
        start = time.monotonic()
        context.prefetch(PAIRS)
        elapsed = time.monotonic() - start
        assert elapsed < RECOVERY_BUDGET_S
        assert faults.pending_tokens(token_dir) == []  # the hang happened
        assert context.stats.task_timeouts >= 1
        assert context.stats.pool_restarts >= 1
        assert context.stats.simulated == len(PAIRS)

        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(context.run(*pair)) == _fields(serial.run(*pair)), pair

    def test_timeout_event_recorded_with_detail(self, tmp_path, monkeypatch):
        context, token_dir = _supervised_context(tmp_path, monkeypatch)
        faults.arm_worker_hangs(token_dir, 1)
        context.prefetch(PAIRS)
        timeouts = [e for e in context.stats.events if e["event"] == "task_timeout"]
        assert timeouts and timeouts[0]["timeout_s"] == 3.0
        assert timeouts[0]["running"] is True  # a hang, not a queue stall
        restarts = [e for e in context.stats.events if e["event"] == "pool_restart"]
        assert any(e["reason"] == "hung" for e in restarts)

    def test_task_detail_names_the_group_configs(self, tmp_path, monkeypatch):
        """A simulation task is a chunk of one trace's configs; its
        timeout and serial-fallback events name every config in it."""
        context, token_dir = _supervised_context(tmp_path, monkeypatch,
                                                 timeout_s=1.5)
        context.max_task_attempts = 1
        faults.arm_worker_hangs(token_dir, 1)
        context.prefetch(PAIRS)
        names = tuple(context._config_for(label).name for label in ("Base", "TH"))
        groups = {("adpcm", names), ("susan", names)}
        for kind in ("task_timeout", "serial_fallback"):
            events = [e for e in context.stats.events if e["event"] == kind]
            assert events, kind
            for event in events:
                assert (event["benchmark"], tuple(event["configs"])) in groups
                assert "config" not in event

    def test_repeated_hangs_exhaust_attempts_and_go_serial(
        self, tmp_path, monkeypatch
    ):
        """More hang tokens than the attempt budget: serial fallback wins."""
        context, token_dir = _supervised_context(tmp_path, monkeypatch,
                                                 timeout_s=1.5)
        context.max_task_attempts = 2
        faults.arm_worker_hangs(token_dir, 8)
        context.prefetch(PAIRS)
        assert context.stats.simulated == len(PAIRS)
        assert context.stats.task_timeouts >= 2
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(context.run(*pair)) == _fields(serial.run(*pair)), pair

    def test_no_deadline_by_default(self):
        assert ExperimentContext(TINY, cache=None).task_timeout_s is None

    def test_deadline_from_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_TASK_TIMEOUT, "7.5")
        assert ExperimentContext(TINY, cache=None).task_timeout_s == 7.5

    def test_invalid_deadline_env_warns(self, monkeypatch):
        monkeypatch.setenv(ENV_TASK_TIMEOUT, "soon")
        with pytest.warns(RuntimeWarning, match="soon"):
            context = ExperimentContext(TINY, cache=None)
        assert context.task_timeout_s is None

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_deadline_env_warns(self, monkeypatch, raw):
        """Only a finite number sets a deadline: an infinite one would
        overflow the deadline wait of a pool run."""
        monkeypatch.setenv(ENV_TASK_TIMEOUT, raw)
        with pytest.warns(RuntimeWarning, match=f"'{raw}'.*finite"):
            context = ExperimentContext(TINY, cache=None)
        assert context.task_timeout_s is None

    @pytest.mark.parametrize("raw", ["0", "0.0", "-5"])
    def test_non_positive_deadline_env_warns(self, monkeypatch, raw):
        """A zero or negative deadline sets none, and says so."""
        monkeypatch.setenv(ENV_TASK_TIMEOUT, raw)
        with pytest.warns(RuntimeWarning, match=f"'{raw}'.*positive"):
            context = ExperimentContext(TINY, cache=None)
        assert context.task_timeout_s is None


class TestMidSimulationFaults:
    def test_midsim_kill_recovers_byte_identical(self, tmp_path, monkeypatch):
        """Death at instruction 500 — partial activity state — still recovers."""
        context, token_dir = _supervised_context(tmp_path, monkeypatch)
        faults.arm_midsim_faults(token_dir, 1, "kill", at_instruction=500)
        context.prefetch(PAIRS)
        assert faults.pending_tokens(token_dir) == []
        assert context.stats.pool_restarts >= 1
        assert context.stats.simulated == len(PAIRS)
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(context.run(*pair)) == _fields(serial.run(*pair)), pair

    def test_midsim_hang_recovers_via_deadline(self, tmp_path, monkeypatch):
        """A worker that wedges *inside* the loop is reaped by the deadline."""
        context, token_dir = _supervised_context(tmp_path, monkeypatch)
        faults.arm_midsim_faults(token_dir, 1, "hang", at_instruction=500)
        start = time.monotonic()
        context.prefetch(PAIRS)
        assert time.monotonic() - start < RECOVERY_BUDGET_S
        assert faults.pending_tokens(token_dir) == []
        assert context.stats.task_timeouts >= 1
        assert context.stats.simulated == len(PAIRS)
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(context.run(*pair)) == _fields(serial.run(*pair)), pair

    def test_midsim_rejects_unknown_action(self, tmp_path):
        with pytest.raises(ValueError, match="explode"):
            faults.arm_midsim_faults(tmp_path, 1, "explode")

    def test_fault_hook_is_clean_in_this_process(self):
        """Arming tokens never touches the parent's pipeline hook."""
        from repro.cpu import pipeline

        assert pipeline.FAULT_HOOK is None


class TestEventCorrelation:
    def test_events_carry_ts_run_id_batch_id(self, tmp_path, monkeypatch):
        """Every --log-json event lines up with external job-runner logs."""
        context, token_dir = _supervised_context(tmp_path, monkeypatch)
        faults.arm_worker_raises(token_dir, 1)
        context.prefetch(PAIRS)
        assert context.stats.events
        for event in context.stats.events:
            assert event["run_id"] == context.stats.run_id
            assert event["batch_id"].startswith("b")
            datetime.fromisoformat(event["ts"])  # parses as ISO-8601

    def test_run_ids_are_unique_per_context(self):
        a = ExperimentContext(TINY, cache=None)
        b = ExperimentContext(TINY, cache=None)
        assert a.stats.run_id and a.stats.run_id != b.stats.run_id

    def test_batch_id_cleared_between_batches(self, tmp_path, monkeypatch):
        context, token_dir = _supervised_context(tmp_path, monkeypatch)
        context.prefetch(PAIRS)
        assert context.stats.batch_id is None

    def test_stats_payload_has_new_counters(self):
        payload = ExperimentContext(TINY, cache=None).stats.as_dict()
        for counter in ("run_id", "task_timeouts", "claim_waits", "claim_dedup",
                        "claim_takeovers"):
            assert counter in payload, counter
