"""Parallel-vs-serial equivalence and on-disk cache round-trip tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cpu.config import baseline_config
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    simulation_key,
)
from repro.experiments.context import ExperimentContext, ExperimentSettings

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm", "susan"),
    thermal_grid=32,
)

PAIRS = [("adpcm", "Base"), ("adpcm", "TH"), ("susan", "Base"), ("susan", "TH")]


def _fields(result):
    """Every value-bearing field of a SimulationResult, comparably typed."""
    return {
        "benchmark": result.benchmark,
        "config": result.config_name,
        "clock": result.clock_ghz,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "stalls": dataclasses.asdict(result.stalls),
        "cpi_stack": result.cpi_stack,
        "herding": result.herding,
        "caches": {
            name: (stats.accesses, stats.misses)
            for name, stats in result.cache_stats.items()
        },
        "branches": dataclasses.asdict(result.branch_stats),
        "activity": {
            name: (m.total, m.top_only, tuple(m.per_die))
            for name, m in result.activity.modules().items()
        },
    }


class TestParallelEquivalence:
    def test_parallel_matches_serial(self):
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        parallel = ExperimentContext(TINY, jobs=2, cache=None)
        parallel.prefetch(PAIRS)
        assert parallel.stats.simulated == len(PAIRS)
        for pair in PAIRS:
            assert _fields(parallel.run(*pair)) == _fields(serial.run(*pair)), pair
        assert serial.stats.simulated == len(PAIRS)

    def test_run_many_returns_all_pairs(self):
        context = ExperimentContext(TINY, jobs=2, cache=None)
        results = context.run_many(PAIRS)
        assert set(results) == set(PAIRS)
        assert results[("adpcm", "Base")] is context.run("adpcm", "Base")

    def test_jobs_resolution_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert ExperimentContext(TINY, cache=None).jobs == 3
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        with pytest.warns(RuntimeWarning, match="not-a-number"):
            assert ExperimentContext(TINY, cache=None).jobs >= 1
        assert ExperimentContext(TINY, jobs=7, cache=None).jobs == 7


class TestResultCache:
    def test_round_trip_warm_hit(self, tmp_path):
        cold = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        first = cold.run("adpcm", "Base")
        assert cold.stats.simulated == 1

        warm = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        second = warm.run("adpcm", "Base")
        assert warm.stats.simulated == 0
        assert warm.stats.sim_disk_hits == 1
        assert _fields(first) == _fields(second)

    def test_prefetch_warm_runs_nothing(self, tmp_path):
        ExperimentContext(TINY, jobs=2, cache=ResultCache(tmp_path)).prefetch(PAIRS)
        warm = ExperimentContext(TINY, jobs=2, cache=ResultCache(tmp_path))
        warm.prefetch(PAIRS)
        assert warm.stats.simulated == 0
        assert warm.stats.sim_disk_hits == len(PAIRS)

    def test_key_changes_with_config_and_fidelity(self):
        config = baseline_config()
        key = simulation_key("adpcm", config, 2_000, 500)
        assert key == simulation_key("adpcm", config, 2_000, 500)
        changed = dataclasses.replace(config, rob_size=config.rob_size + 1)
        assert simulation_key("adpcm", changed, 2_000, 500) != key
        assert simulation_key("adpcm", config, 4_000, 500) != key
        assert simulation_key("adpcm", config, 2_000, 600) != key
        assert simulation_key("susan", config, 2_000, 500) != key

    def test_changed_key_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        context = ExperimentContext(TINY, jobs=1, cache=cache)
        context.run("adpcm", "Base")

        longer = dataclasses.replace(TINY, trace_length=3_000)
        other = ExperimentContext(longer, jobs=1, cache=ResultCache(tmp_path))
        other.run("adpcm", "Base")
        assert other.stats.simulated == 1
        assert other.stats.sim_disk_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        context = ExperimentContext(TINY, jobs=1, cache=cache)
        context.run("adpcm", "Base")
        (entry,) = cache.entries()
        entry.write_bytes(b"not a cache entry")

        recovered = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        recovered.run("adpcm", "Base")
        assert recovered.stats.simulated == 1
        assert recovered.stats.sim_disk_hits == 0

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentContext(TINY, jobs=1, cache=cache).run("adpcm", "Base")
        (entry,) = cache.entries()
        entry.write_bytes(entry.read_bytes()[:-1])
        assert ResultCache(tmp_path).load(entry.name.split(".")[0]) is None

    def test_clear_and_describe(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentContext(TINY, jobs=1, cache=cache).prefetch(PAIRS[:2])
        assert len(cache.entries()) == 2
        assert f"v{CACHE_SCHEMA_VERSION}" in cache.describe()
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_stale_version_pruned(self, tmp_path):
        stale = tmp_path / "v0" / "ab"
        stale.mkdir(parents=True)
        (stale / "abcd.pkl").write_bytes(b"old")
        cache = ResultCache(tmp_path)
        assert [p.name for p in cache.stale_version_dirs()] == ["v0"]
        assert cache.prune_stale() == 1
        assert cache.stale_version_dirs() == []

    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert ResultCache.from_env() is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert ResultCache.from_env() is not None

    def test_run_config_cached(self, tmp_path):
        config = dataclasses.replace(baseline_config(), clock_ghz=3.0)
        first = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        a = first.run_config("adpcm", config)
        assert a is first.run_config("adpcm", config)
        assert first.stats.simulated == 1

        warm = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        b = warm.run_config("adpcm", config)
        assert warm.stats.simulated == 0
        assert _fields(a) == _fields(b)


class TestBatchedThermal:
    def test_thermal_many_matches_single(self, tmp_path):
        context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        pairs = [("adpcm", "Base"), ("susan", "Base"), ("adpcm", "3D")]
        batched = context.thermal_many(pairs)

        fresh = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        for pair in pairs:
            single = fresh.thermal(*pair)
            assert single.peak_temperature == pytest.approx(
                batched[pair].peak_temperature, rel=1e-12
            )
            assert single.block_peak == pytest.approx(batched[pair].block_peak)

    def test_thermal_memoized(self):
        context = ExperimentContext(TINY, jobs=1, cache=None)
        assert context.thermal("adpcm", "Base") is context.thermal("adpcm", "Base")
