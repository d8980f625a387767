"""The compiled-trace store: generate once, map everywhere.

A config sweep must pay for each workload's emulation and compilation
once (not once per configuration), a second sweep against a warm store
must do *zero* emulator runs, workers must receive traces as
memory-mapped files rather than regenerating them, and any damaged
store entry must cost one regeneration — never a wrong result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.experiments import executor, faults, resolver
from repro.experiments.cache import ResultCache, TraceStore, trace_store_key
from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.isa.compiled import TRACE_DTYPE
from repro.workloads.suite import fingerprint, generate

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
        "instructions": result.instructions,
        "cycles": result.cycles,
        "cpi_stack": result.cpi_stack,
        "herding": result.herding,
    }


class TestFingerprint:
    def test_deterministic_and_distinct(self):
        assert fingerprint("adpcm", 2_000) == fingerprint("adpcm", 2_000)
        assert fingerprint("adpcm", 2_000) != fingerprint("adpcm", 2_001)
        assert fingerprint("adpcm", 2_000) != fingerprint("susan", 2_000)
        assert fingerprint("adpcm", 2_000, seed=7) != fingerprint("adpcm", 2_000)


class TestTraceStore:
    def _store(self, tmp_path) -> TraceStore:
        return ResultCache(tmp_path).trace_store()

    def test_store_load_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        compiled = generate("adpcm", length=300)
        key = trace_store_key(fingerprint("adpcm", 300))
        assert store.store(key, compiled) is not None
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.name == "adpcm"
        assert len(loaded) == 300
        assert loaded.array.tobytes() == compiled.array.tobytes()
        assert store.hits == 1 and store.stores == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        assert store.load("0" * 64) is None
        assert store.misses == 1
        assert store.evictions == 0  # nothing to evict

    def test_corrupt_array_evicts_both_files(self, tmp_path):
        store = self._store(tmp_path)
        compiled = generate("adpcm", length=300)
        key = trace_store_key(fingerprint("adpcm", 300))
        npy = store.store(key, compiled)
        npy.write_bytes(b"garbage")
        assert store.load(key) is None
        assert store.evictions == 1
        assert not npy.exists()
        assert not npy.with_suffix(".json").exists()

    def test_corrupt_meta_evicts_both_files(self, tmp_path):
        store = self._store(tmp_path)
        compiled = generate("adpcm", length=300)
        key = trace_store_key(fingerprint("adpcm", 300))
        npy = store.store(key, compiled)
        meta = npy.with_suffix(".json")
        payload = json.loads(meta.read_text())
        payload["schema"] = 9999
        meta.write_text(json.dumps(payload))
        assert store.load(key) is None
        assert store.evictions == 1
        assert not npy.exists() and not meta.exists()

    def test_torn_write_self_heals(self, tmp_path):
        """An array without its metadata (crash between renames) is
        indistinguishable from a miss and gets cleaned up."""
        store = self._store(tmp_path)
        compiled = generate("adpcm", length=300)
        key = trace_store_key(fingerprint("adpcm", 300))
        npy = store.store(key, compiled)
        npy.with_suffix(".json").unlink()
        assert store.load(key) is None
        assert not npy.exists()


class TestLedgerAccounting:
    """Trace entries count against ``REPRO_CACHE_MAX_MB`` via the shared
    index when the store comes from :meth:`ResultCache.trace_store`."""

    def test_store_and_evict_are_ledger_accounted(self, tmp_path):
        cache = ResultCache(tmp_path)
        store = cache.trace_store()
        key = trace_store_key(fingerprint("adpcm", 300))
        npy = store.store(key, generate("adpcm", length=300))
        expected = npy.stat().st_size + npy.with_suffix(".json").stat().st_size
        assert cache.ledger.total_bytes() == expected
        assert list(cache.ledger.rows()) == [("trace", key)]
        npy.write_bytes(b"garbage")
        assert store.load(key) is None  # damaged entry: evicted...
        assert cache.ledger.total_bytes() == 0  # ...and de-accounted

    def test_standalone_store_is_unaccounted(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        key = trace_store_key(fingerprint("adpcm", 300))
        npy = store.store(key, generate("adpcm", length=300))
        assert npy is not None
        assert store.load(key) is not None  # works fine, just unbounded

    def test_trace_store_triggers_cap_enforcement(self, tmp_path):
        """Storing a trace enforces the cap with the new entry protected:
        with everything else claimed or fresh, the *results* make room."""
        cache = ResultCache(tmp_path, max_mb=1 / 1024)  # 1 KiB: tiny
        result_key = "ab" + "0" * 62
        cache.store(result_key, b"x" * 4096)
        assert cache._path(result_key).exists()  # protected at its own store
        store = cache.trace_store()
        key = trace_store_key(fingerprint("adpcm", 300))
        npy = store.store(key, generate("adpcm", length=300))
        assert npy is not None and npy.exists()  # just stored: protected
        assert not cache._path(result_key).exists()  # evicted to make room
        assert cache.ledger.total_bytes() == \
            npy.stat().st_size + npy.with_suffix(".json").stat().st_size


class TestSweepReuse:
    def test_one_generation_per_workload_per_sweep(self, tmp_path):
        context = ExperimentContext(TINY, jobs=1,
                                    cache=ResultCache(tmp_path))
        context.run_many(PAIRS)
        # Two workloads, four simulations: the emulator ran once per
        # workload, not once per (workload, config).
        assert context.stats.simulated == 4
        assert context.stats.traces_generated == 2
        assert len(context.cache.trace_store().entries()) == 2

    def test_warm_store_does_zero_emulator_runs(self, tmp_path):
        first = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        results = first.run_many(PAIRS)
        # Drop the *result* entries so the second sweep must re-simulate,
        # while the compiled traces stay warm.
        for entry in first.cache.entries():
            entry.unlink()
        second = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        again = second.run_many(PAIRS)
        assert second.stats.traces_generated == 0
        assert second.stats.trace_cache_hits == 2
        assert second.stats.simulated == 4
        for pair in PAIRS:
            assert _fields(again[pair]) == _fields(results[pair]), pair

    def test_store_disabled_with_cache(self):
        context = ExperimentContext(TINY, jobs=1, cache=None)
        context.run("adpcm", "Base")
        assert context.stats.trace_cache_hits == 0
        assert context.stats.traces_generated == 1

    def test_stats_payload_carries_trace_fields(self, tmp_path):
        context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        context.run_many(PAIRS)
        payload = context.stats.as_dict()
        assert payload["traces_generated"] == 2
        assert payload["trace_cache_hits"] == 0
        assert payload["instructions_simulated"] == 4 * TINY.trace_length
        assert payload["instructions_per_second"] > 0


class TestDataBitFlip:
    def test_flipped_data_bit_is_an_evicting_miss(self, tmp_path):
        """One flipped address bit in a stored array is caught by the
        sidecar's CRC-32: the load misses, the entry is evicted, and the
        regenerated trace is the emulator's exact output."""
        from tests.workloads.test_trace_digest import GOLDEN

        settings = dataclasses.replace(TINY, trace_length=137, warmup=37,
                                       benchmarks=("gzip",))
        first = ExperimentContext(settings, jobs=1, cache=ResultCache(tmp_path))
        first.run("gzip", "Base")
        (npy,) = first.cache.trace_store().entries()
        array = np.load(npy)
        row = int(np.flatnonzero(array["has_mem_addr"])[0])
        header = npy.stat().st_size - array.nbytes
        offset = (header + row * TRACE_DTYPE.itemsize
                  + TRACE_DTYPE.fields["mem_addr"][1])
        data = bytearray(npy.read_bytes())
        data[offset + 2] ^= 1 << 6  # bit 22 of the little-endian address
        npy.write_bytes(bytes(data))

        second = ExperimentContext(settings, jobs=1, cache=ResultCache(tmp_path))
        compiled = second.trace("gzip")
        store = second.cache.trace_store()
        assert second.stats.trace_cache_hits == 0
        assert second.stats.traces_generated == 1
        assert store.misses == 1 and store.evictions == 1
        assert hashlib.sha256(compiled.array.tobytes()).hexdigest() \
            == GOLDEN["gzip", 137, None]


class TestWorkerTransport:
    def test_workers_get_the_parents_trace(self, tmp_path):
        """Parallel sweeps generate each trace once, in the parent, and
        send it to the workers; results match the serial reference."""
        context = ExperimentContext(TINY, jobs=2, cache=ResultCache(tmp_path))
        results = context.run_many(PAIRS)
        assert context.stats.traces_generated == 2  # parent only
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(results[pair]) == _fields(serial.run(*pair)), pair

    def test_killed_worker_with_stored_trace(self, tmp_path, monkeypatch):
        """A worker dying mid-batch never corrupts the store or the
        results: retries get the same trace again."""
        token_dir = tmp_path / "fault-tokens"
        faults.arm_worker_kills(token_dir, 1)
        monkeypatch.setenv(faults.ENV_FAULT_DIR, str(token_dir))
        context = ExperimentContext(TINY, jobs=2,
                                    cache=ResultCache(tmp_path / "cache"))
        monkeypatch.setattr(executor, "RETRY_BACKOFF_S", 0.01)
        results = context.run_many(PAIRS)
        assert context.stats.pool_restarts >= 1
        monkeypatch.delenv(faults.ENV_FAULT_DIR)
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(results[pair]) == _fields(serial.run(*pair)), pair
        # The store survived the dead worker intact.
        store = ExperimentContext(
            TINY, jobs=1, cache=ResultCache(tmp_path / "cache")
        ).cache.trace_store()
        assert len(store.entries()) == 2


class TestWorkStealing:
    def test_abandoned_claims_are_stolen_mid_wait(self, tmp_path, monkeypatch):
        """Claims whose holders died are taken over and simulated
        immediately during the collective wait, not after a timeout."""
        import subprocess
        import sys
        import time

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead_pid = proc.pid

        cache = ResultCache(tmp_path)
        context = ExperimentContext(TINY, jobs=1, cache=cache)
        monkeypatch.setattr(resolver, "CLAIM_POLL_S", 0.01)
        for benchmark, label in PAIRS:
            key = context._cache_key(benchmark, context._config_for(label))
            cache.ledger.connection().execute(
                "INSERT INTO claims VALUES (?, ?, ?)",
                (key, dead_pid, time.time()))
        results = context.run_many(PAIRS)
        assert context.stats.claim_waits == 4
        assert context.stats.claim_takeovers == 4
        assert context.stats.claim_steals == 4
        assert context.stats.simulated == 4
        steal_events = [e for e in context.stats.events
                        if e["event"] == "claim_steal"]
        assert steal_events and steal_events[0]["tasks"] >= 1
        serial = ExperimentContext(TINY, jobs=1, cache=None)
        for pair in PAIRS:
            assert _fields(results[pair]) == _fields(serial.run(*pair)), pair
        assert cache.claims() == []  # all released after storing

    def test_peer_results_adopted_without_simulation(self, tmp_path,
                                                     monkeypatch):
        """Keys another live process finishes during the wait are adopted
        (dedup), exercising the collective-poll happy path."""
        import threading
        import time

        produced = {
            pair: ExperimentContext(TINY, jobs=1, cache=None).run(*pair)
            for pair in PAIRS[:2]
        }
        shared = ResultCache(tmp_path)
        context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        monkeypatch.setattr(resolver, "CLAIM_POLL_S", 0.01)
        keys = {}
        for benchmark, label in PAIRS[:2]:
            key = context._cache_key(benchmark, context._config_for(label))
            keys[(benchmark, label)] = key
            assert shared.try_claim(key)

        def peer_finishes():
            time.sleep(0.3)
            for pair, key in keys.items():
                shared.store(key, produced[pair])
                shared.release_claim(key)

        thread = threading.Thread(target=peer_finishes)
        thread.start()
        try:
            results = context.run_many(PAIRS[:2])
        finally:
            thread.join()
        assert context.stats.simulated == 0
        assert context.stats.claim_dedup == 2
        assert context.stats.claim_steals == 0
        for pair in PAIRS[:2]:
            assert _fields(results[pair]) == _fields(produced[pair]), pair
