"""The ``ContextStats`` telemetry payload and the stage it times.

``as_dict()`` is read by name by CI, the benchmark harness and
``--stats`` consumers, so its key set is pinned here; every simulation,
including a single in-process ``run()``, must land in the ``simulate``
stage that ``instructions_per_second`` divides by.
"""

from __future__ import annotations

from repro.experiments.context import (
    ContextStats,
    ExperimentContext,
    ExperimentSettings,
)

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm",),
    thermal_grid=16,
)

#: The payload keys ``--stats`` files carry.
PAYLOAD_KEYS = [
    "claim_dedup", "claim_steals", "claim_takeovers", "claim_waits",
    "factorizations", "instructions_per_second", "instructions_simulated",
    "interval_disk_hits", "intervals_extracted", "leakage_disk_hits",
    "pool_restarts", "run_id", "serial_fallbacks", "sim_disk_hits",
    "simulated", "stage_seconds", "step_factorizations",
    "task_retries", "task_timeouts", "tasks_run",
    "thermal_disk_hits", "thermal_groups", "thermal_solved",
    "thermal_worker_factorizations", "thermal_worker_groups",
    "trace_cache_hits", "traces_generated",
    "transient_disk_hits", "transient_groups", "transient_runs",
    "transient_steps", "transient_worker_factorizations",
    "transient_worker_groups",
]


class TestPayload:
    def test_key_set_is_pinned(self):
        assert sorted(ContextStats().as_dict()) == PAYLOAD_KEYS

    def test_values_and_rounding(self):
        stats = ContextStats(run_id="abc", simulated=3, sim_disk_hits=2,
                             instructions_simulated=9_000)
        stats.add_stage("thermal", 0.5)
        stats.add_stage("simulate", 0.0044444)
        stats.record_event("claim_wait", key="k")
        payload = stats.as_dict()
        assert payload["run_id"] == "abc"
        assert payload["simulated"] == 3
        assert payload["sim_disk_hits"] == 2
        assert payload["instructions_per_second"] == round(9_000 / 0.0044444, 1)
        assert list(payload["stage_seconds"].items()) == [
            ("simulate", 0.004), ("thermal", 0.5),
        ]
        assert "events" not in payload and "batch_id" not in payload


class TestSimulateStage:
    def test_single_run_counts_toward_the_simulate_stage(self):
        """An in-process ``run()`` is timed like a prefetched one."""
        context = ExperimentContext(TINY, jobs=1, cache=None)
        context.run("adpcm", "Base")
        assert context.stats.simulated == 1
        assert "simulate" in context.stats.stage_seconds
        assert context.stats.as_dict()["instructions_per_second"] > 0
