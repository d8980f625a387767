"""Fault-injection tests: the engine must survive what we throw at it.

Every test here injects a real fault — a worker killed with ``os._exit``
mid-batch, a cache entry corrupted on disk, a filesystem that refuses
writes — and asserts both recovery (results identical to a clean serial
run) and telemetry (the robustness counters say what happened).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import executor, faults
from repro.experiments.cache import ResultCache, simulation_key
from repro.experiments.context import (
    ENV_JOBS,
    ExperimentContext,
    ExperimentSettings,
)
from repro.experiments.figure8 import run_figure8

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm", "susan"),
    thermal_grid=32,
)

PAIRS = [("adpcm", "Base"), ("adpcm", "TH"), ("susan", "Base"), ("susan", "TH")]


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


def _assert_index_matches_disk(cache: ResultCache) -> None:
    """The index tracks exactly the bytes on disk, with no row whose file
    is missing."""
    index = cache.ledger
    assert index.total_bytes() == cache.size_bytes()
    for kind, key in index.rows():
        assert cache._path(key, kind).exists(), (kind, key)


def _fault_context(tmp_path, monkeypatch, *, kills=0, raises=0, jobs=2):
    """A parallel context with fault tokens armed in a scratch directory."""
    token_dir = tmp_path / "fault-tokens"
    if kills:
        faults.arm_worker_kills(token_dir, kills)
    if raises:
        faults.arm_worker_raises(token_dir, raises)
    monkeypatch.setenv(faults.ENV_FAULT_DIR, str(token_dir))
    context = ExperimentContext(TINY, jobs=jobs, cache=None)
    # keep injected-crash tests fast
    monkeypatch.setattr(executor, "RETRY_BACKOFF_S", 0.01)
    return context, token_dir


class TestWorkerCrashRecovery:
    def test_worker_kill_mid_batch_recovers(self, tmp_path, monkeypatch):
        """One worker dies (os._exit, like an OOM kill); batch still completes."""
        context, token_dir = _fault_context(tmp_path, monkeypatch, kills=1)
        context.prefetch(PAIRS)
        assert faults.pending_tokens(token_dir) == []  # the kill happened
        assert context.stats.pool_restarts >= 1
        assert context.stats.simulated == len(PAIRS)

        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(context.run(*pair)) == _fields(serial.run(*pair)), pair

    def test_report_identical_to_serial_after_worker_kill(
        self, tmp_path, monkeypatch
    ):
        """Figure-level output is byte-identical to a serial run despite a crash."""
        serial_text = run_figure8(ExperimentContext(TINY, jobs=1, cache=None)).format()

        context, token_dir = _fault_context(tmp_path, monkeypatch, kills=1)
        faulted_text = run_figure8(context).format()
        assert faults.pending_tokens(token_dir) == []
        assert context.stats.pool_restarts >= 1
        assert faulted_text == serial_text

    def test_persistent_crashes_degrade_to_serial(self, tmp_path, monkeypatch):
        """A pool that breaks on every restart ends in serial execution."""
        context, _ = _fault_context(tmp_path, monkeypatch, kills=64)
        monkeypatch.setattr(executor, "MAX_POOL_RESTARTS", 2)
        with pytest.warns(RuntimeWarning, match="serially"):
            context.prefetch(PAIRS)
        assert context.stats.serial_fallbacks >= 1
        assert context.stats.pool_restarts == 2
        assert context.stats.simulated == len(PAIRS)

        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(context.run(*pair)) == _fields(serial.run(*pair)), pair

    def test_in_task_exception_retried_on_live_pool(self, tmp_path, monkeypatch):
        """A raising task is retried without restarting the healthy pool."""
        context, token_dir = _fault_context(tmp_path, monkeypatch, raises=1)
        context.prefetch(PAIRS)
        assert faults.pending_tokens(token_dir) == []
        assert context.stats.task_retries >= 1
        assert context.stats.pool_restarts == 0
        assert context.stats.simulated == len(PAIRS)
        assert any(e["event"] == "task_error" for e in context.stats.events)

    def test_repeatedly_raising_task_falls_back_to_serial(
        self, tmp_path, monkeypatch
    ):
        """More raise faults than retry budget → serial fallback, still correct."""
        context, _ = _fault_context(tmp_path, monkeypatch, raises=64, jobs=2)
        monkeypatch.setattr(executor, "MAX_TASK_ATTEMPTS", 2)
        context.prefetch(PAIRS)
        assert context.stats.serial_fallbacks >= 1
        assert context.stats.simulated == len(PAIRS)
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(context.run(*pair)) == _fields(serial.run(*pair)), pair

    def test_completed_results_survive_pool_breakage(self, tmp_path, monkeypatch):
        """Results finished before the crash are kept, with their stores cached."""
        cache = ResultCache(tmp_path / "cache")
        token_dir = tmp_path / "fault-tokens"
        faults.arm_worker_kills(token_dir, 1)
        monkeypatch.setenv(faults.ENV_FAULT_DIR, str(token_dir))
        context = ExperimentContext(TINY, jobs=2, cache=cache)
        monkeypatch.setattr(executor, "RETRY_BACKOFF_S", 0.01)
        context.prefetch(PAIRS)
        assert context.stats.simulated == len(PAIRS)
        assert len(cache.entries()) == len(PAIRS)

    def test_telemetry_in_stats_dict(self, tmp_path, monkeypatch):
        context, _ = _fault_context(tmp_path, monkeypatch, kills=1)
        context.prefetch(PAIRS)
        payload = context.stats.as_dict()
        assert payload["pool_restarts"] >= 1
        assert payload["simulated"] == len(PAIRS)
        assert "simulate" in payload["stage_seconds"]
        assert any(e["event"] == "pool_restart" for e in context.stats.events)

    def test_no_injection_without_env(self, tmp_path):
        """The fault point is inert when REPRO_FAULT_DIR is unset."""
        faults.arm_worker_kills(tmp_path / "unused", 1)
        context = ExperimentContext(TINY, jobs=2, cache=None)
        context.prefetch(PAIRS)
        assert context.stats.pool_restarts == 0
        assert context.stats.serial_fallbacks == 0


class TestCacheFaults:
    def _primed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ExperimentContext(TINY, jobs=1, cache=cache).run("adpcm", "Base")
        (entry,) = cache.entries()
        return cache, entry

    def test_garbage_entry_deleted_and_recomputed(self, tmp_path):
        _, entry = self._primed(tmp_path)
        faults.corrupt_entry(entry, "garbage")
        fresh = ResultCache(tmp_path / "cache")
        context = ExperimentContext(TINY, jobs=1, cache=fresh)
        context.run("adpcm", "Base")
        assert context.stats.simulated == 1
        assert fresh.evictions == 1
        # The recomputed result replaced the damaged file with a good one.
        warm = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path / "cache"))
        warm.run("adpcm", "Base")
        assert warm.stats.sim_disk_hits == 1
        assert warm.stats.simulated == 0

    def test_truncated_entry_deleted_and_recomputed(self, tmp_path):
        _, entry = self._primed(tmp_path)
        faults.corrupt_entry(entry, "truncate")
        fresh = ResultCache(tmp_path / "cache")
        context = ExperimentContext(TINY, jobs=1, cache=fresh)
        context.run("adpcm", "Base")
        assert context.stats.simulated == 1
        assert fresh.evictions == 1

    def test_type_mismatched_entry_deleted(self, tmp_path):
        """A wrong-type payload is evicted, not left to re-miss forever."""
        cache = ResultCache(tmp_path / "cache")
        key = simulation_key(
            "adpcm", ExperimentContext(TINY, cache=None).configs["Base"],
            TINY.trace_length, TINY.warmup,
        )
        cache.store(key, {"not": "a SimulationResult"})
        assert cache.load(key) is None
        assert cache.evictions == 1
        assert not cache._path(key).exists()  # second load is a clean miss
        assert cache.load(key) is None
        assert cache.evictions == 1

    def test_full_disk_degrades_to_cacheless(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        with faults.full_disk(root):
            context = ExperimentContext(TINY, jobs=1, cache=cache)
            result = context.run("adpcm", "Base")
            # The index refuses the claim row too, so every claim is won,
            # by this cache and by a peer's alike.
            assert cache.try_claim("0" * 64)
            assert ResultCache(root).try_claim("0" * 64)
        assert context.stats.simulated == 1
        assert cache.stores == 0
        assert cache.entries() == []
        assert cache.tmp_files() == []  # no leaked scratch files either
        assert cache.claims() == []
        _assert_index_matches_disk(cache)
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        assert _fields(result) == _fields(serial.run("adpcm", "Base"))

    def test_read_only_filesystem_degrades_to_cacheless(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        with faults.read_only_filesystem(root):
            context = ExperimentContext(TINY, jobs=1, cache=cache)
            result = context.run("adpcm", "Base")
        assert context.stats.simulated == 1
        assert cache.stores == 0
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        assert _fields(result) == _fields(serial.run("adpcm", "Base"))

    def test_read_only_filesystem_still_serves_hits(self, tmp_path):
        cache, _ = self._primed(tmp_path)
        with faults.read_only_filesystem(tmp_path / "cache"):
            warm = ExperimentContext(
                TINY, jobs=1, cache=ResultCache(tmp_path / "cache")
            )
            warm.run("adpcm", "Base")
            assert warm.cache.try_claim("0" * 64)  # refused: run uncoordinated
            assert warm.cache.claims() == []
        assert warm.stats.simulated == 0
        assert warm.stats.sim_disk_hits == 1
        _assert_index_matches_disk(warm.cache)
        _assert_index_matches_disk(cache)


class TestTmpFileHygiene:
    def test_dead_writer_tmp_swept(self, tmp_path):
        cache = ResultCache(tmp_path)
        bucket = cache.version_dir / "ab"
        bucket.mkdir(parents=True)
        dead = bucket / f"{'a' * 64}.pkl.99999999.tmp"  # pid can't exist
        dead.write_bytes(b"partial write")
        junk = bucket / "junk.tmp"  # unparseable writer pid: abandoned
        junk.write_bytes(b"?")
        live = bucket / f"{'b' * 64}.pkl.{os.getpid()}.tmp"  # us, fresh
        live.write_bytes(b"in flight")
        assert cache.sweep_tmp() == 2
        assert not dead.exists()
        assert not junk.exists()
        assert live.exists()

    def test_old_tmp_swept_even_with_live_pid(self, tmp_path):
        cache = ResultCache(tmp_path)
        bucket = cache.version_dir / "cd"
        bucket.mkdir(parents=True)
        stale = bucket / f"{'c' * 64}.pkl.{os.getpid()}.tmp"
        stale.write_bytes(b"ancient")
        assert cache.sweep_tmp(max_age_s=0.0) == 1

    def test_cli_cache_info_reports_sweep(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(tmp_path)
        bucket = cache.version_dir / "ef"
        bucket.mkdir(parents=True)
        (bucket / f"{'e' * 64}.pkl.99999999.tmp").write_bytes(b"x")
        assert main(["cache", "info"]) == 0
        assert "stale temp files swept: 1" in capsys.readouterr().out
        assert cache.tmp_files() == []

    def test_cli_cache_clear_reports_tmp_count(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(tmp_path)
        bucket = cache.version_dir / "01"
        bucket.mkdir(parents=True)
        (bucket / f"{'0' * 64}.pkl.99999999.tmp").write_bytes(b"x")
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "1 temp file(s)" in out
        assert not cache.root.exists()


class TestJobsResolution:
    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "3")
        assert ExperimentContext(TINY, jobs=7, cache=None).jobs == 7

    def test_invalid_env_warns_and_names_value(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "fourr")
        with pytest.warns(RuntimeWarning, match="fourr"):
            context = ExperimentContext(TINY, cache=None)
        assert context.jobs >= 1

    def test_valid_env_does_not_warn(self, monkeypatch, recwarn):
        monkeypatch.setenv(ENV_JOBS, "2")
        assert ExperimentContext(TINY, cache=None).jobs == 2
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_default_is_the_usable_cpus(self, monkeypatch):
        """A process pinned to one CPU defaults to one worker, however
        many CPUs the machine has; without an affinity mask the CPU
        count is the default."""
        monkeypatch.delenv(ENV_JOBS, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert ExperimentContext(TINY, cache=None).jobs == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ExperimentContext(TINY, cache=None).jobs == 8

    def test_bounds_clamped_to_at_least_one(self, monkeypatch):
        assert ExperimentContext(TINY, jobs=-5, cache=None).jobs == 1
        assert ExperimentContext(TINY, jobs=0, cache=None).jobs == 1
        monkeypatch.setenv(ENV_JOBS, "0")
        assert ExperimentContext(TINY, cache=None).jobs == 1
        monkeypatch.setenv(ENV_JOBS, "-3")
        assert ExperimentContext(TINY, cache=None).jobs == 1


class TestValidateSuiteDuplicates:
    def test_duplicate_names_both_reported(self):
        from repro.isa.builder import TraceBuilder
        from repro.workloads.validation import validate_suite

        def bad_trace():
            # All-wide ALU results violate every class's low-width band.
            builder = TraceBuilder(name="twin")
            for _ in range(32):
                builder.alu(1, 1 << 40)
            return builder.build(benchmark_class="SPECint2000")

        report = validate_suite([bad_trace(), bad_trace()])
        assert set(report) == {"twin", "twin#2"}
        assert any("duplicate trace name" in line for line in report["twin#2"])
        assert not any("duplicate" in line for line in report["twin"])
