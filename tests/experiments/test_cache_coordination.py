"""Cross-process cache coordination and the size high-water mark.

Claim rows in the cache's SQLite index must guarantee "N concurrent
cold starts, one simulation" without ever blocking progress: a dead or
wedged claim holder is taken over, a slow one is waited for (bounded),
and losing a claim race only ever means *waiting* for the winner's
bytes, never recomputing them.  The ``REPRO_CACHE_MAX_MB`` cap must
hold after every store while never evicting the entry a concurrent
reader just touched.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import resolver
from repro.experiments.cache import (
    ENV_CACHE_DIR,
    ENV_CACHE_MAX_MB,
    INDEX_NAME,
    ResultCache,
    trace_store_key,
)
from repro.experiments.context import ExperimentContext, ExperimentSettings

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm", "susan"),
    thermal_grid=32,
)

KEY = hashlib.sha256(b"coordination-test").hexdigest()


def _reap() -> int:
    """A pid that was real a moment ago and is certainly dead now."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def _plant_claim(cache: ResultCache, key: str, pid: int, ts: float) -> None:
    cache.ledger.connection().execute(
        "INSERT OR REPLACE INTO claims VALUES (?, ?, ?)", (key, pid, ts))


def _age(cache: ResultCache, key: str, seconds: float) -> None:
    """Make result ``key`` look last used ``seconds`` ago."""
    cache.ledger.connection().execute(
        "UPDATE entries SET atime = ? WHERE kind = 'result' AND key = ?",
        (time.time() - seconds, key))


class TestClaimProtocol:
    def test_exactly_one_winner(self, tmp_path):
        cache = ResultCache(tmp_path)
        peer = ResultCache(tmp_path)
        assert cache.try_claim(KEY) is True
        assert peer.try_claim(KEY) is False  # already held
        assert cache.try_claim(KEY) is True  # its own claim counts as won
        cache.release_claim(KEY)
        assert peer.try_claim(KEY) is True  # reclaimable after release
        assert cache.try_claim(KEY) is False

    def test_claim_carries_pid_and_timestamp(self, tmp_path):
        cache = ResultCache(tmp_path)
        before = time.time()
        cache.try_claim(KEY)
        holder = cache.claim_holder(KEY)
        assert holder["pid"] == os.getpid()
        assert before - 1 <= holder["ts"] <= time.time() + 1

    def test_release_never_deletes_a_peers_claim(self, tmp_path):
        cache = ResultCache(tmp_path)
        _plant_claim(cache, KEY, pid=1, ts=time.time())  # init: alive, not ours
        cache.release_claim(KEY)
        assert cache.claim_holder(KEY) is not None

    def test_staleness(self, tmp_path):
        cache = ResultCache(tmp_path)
        _plant_claim(cache, KEY, pid=_reap(), ts=time.time())
        assert cache.claim_stale(KEY)  # dead holder: stale regardless of age
        _plant_claim(cache, KEY, pid=os.getpid(), ts=time.time())
        assert not cache.claim_stale(KEY)  # alive and fresh
        _plant_claim(cache, KEY, pid=os.getpid(), ts=time.time() - 10_000)
        assert cache.claim_stale(KEY, max_age_s=3600)  # alive but wedged
        assert not cache.claim_stale("0" * 64)  # unclaimed is not stale

    def test_sweep_claims(self, tmp_path):
        cache = ResultCache(tmp_path)
        _plant_claim(cache, KEY, pid=_reap(), ts=time.time())
        live = hashlib.sha256(b"live").hexdigest()
        _plant_claim(cache, live, pid=os.getpid(), ts=time.time())
        assert cache.sweep_claims() == 1
        assert cache.claim_holder(KEY) is None
        assert cache.claim_holder(live) is not None


class TestClaimCoordination:
    def test_waiter_adopts_peer_result(self, tmp_path, monkeypatch):
        """The claim loser waits and simulates nothing — one simulation total."""
        produced = ExperimentContext(TINY, jobs=1, cache=None).run("adpcm", "Base")
        shared = ResultCache(tmp_path)
        context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        monkeypatch.setattr(resolver, "CLAIM_POLL_S", 0.01)
        key = context._cache_key("adpcm", context._config_for("Base"))
        assert shared.try_claim(key)  # a "peer process" wins the claim

        def peer_finishes():
            time.sleep(0.4)
            shared.store(key, produced)
            shared.release_claim(key)

        thread = threading.Thread(target=peer_finishes)
        thread.start()
        try:
            result = context.run("adpcm", "Base")
        finally:
            thread.join()
        assert context.stats.simulated == 0
        assert context.stats.claim_waits == 1
        assert context.stats.claim_dedup == 1
        assert result.cycles == produced.cycles

    def test_dead_holder_is_taken_over(self, tmp_path, monkeypatch):
        context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        monkeypatch.setattr(resolver, "CLAIM_POLL_S", 0.01)
        key = context._cache_key("adpcm", context._config_for("Base"))
        _plant_claim(context.cache, key, pid=_reap(), ts=time.time())
        context.run("adpcm", "Base")
        assert context.stats.simulated == 1
        assert context.stats.claim_takeovers == 1
        assert context.cache.claim_holder(key) is None  # released after store
        takeovers = [e for e in context.stats.events
                     if e["event"] == "claim_takeover"]
        assert takeovers[0]["reason"] == "stale"

    def test_expired_wait_simulates_anyway(self, tmp_path, monkeypatch):
        """A live-but-slow holder delays the loser, never starves it."""
        context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        monkeypatch.setattr(resolver, "CLAIM_POLL_S", 0.01)
        monkeypatch.setattr(resolver, "CLAIM_WAIT_S", 0.2)
        monkeypatch.setattr(resolver, "DEFAULT_CLAIM_STALE_S", 10_000.0)
        key = context._cache_key("adpcm", context._config_for("Base"))
        _plant_claim(context.cache, key, pid=1, ts=time.time())  # init: alive
        start = time.monotonic()
        context.run("adpcm", "Base")
        assert time.monotonic() - start >= 0.2
        assert context.stats.simulated == 1
        takeovers = [e for e in context.stats.events
                     if e["event"] == "claim_takeover"]
        assert takeovers[0]["reason"] == "wait_expired"
        # The live peer's claim is not ours to delete.
        assert context.cache.claim_holder(key) is not None

    def test_two_processes_one_simulation(self, tmp_path):
        """The acceptance scenario: concurrent cold starts, one simulation."""
        script = tmp_path / "cold_start.py"
        script.write_text(
            "import json, sys\n"
            "from repro.experiments import resolver\n"
            "from repro.experiments.cache import ResultCache\n"
            "from repro.experiments.context import (\n"
            "    ExperimentContext, ExperimentSettings)\n"
            "settings = ExperimentSettings(trace_length=2_000, warmup=500,\n"
            "                              benchmarks=('adpcm',),\n"
            "                              thermal_grid=32)\n"
            "context = ExperimentContext(settings, jobs=1,\n"
            "                            cache=ResultCache(sys.argv[1]))\n"
            "resolver.CLAIM_POLL_S = 0.01\n"
            "context.run('adpcm', 'Base')\n"
            "with open(sys.argv[2], 'w') as stream:\n"
            "    json.dump(context.stats.as_dict(), stream)\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        cache_dir = tmp_path / "shared-cache"
        procs = []
        for index in range(2):
            stats_file = tmp_path / f"stats-{index}.json"
            procs.append((stats_file, subprocess.Popen(
                [sys.executable, str(script), str(cache_dir), str(stats_file)],
                env=env,
            )))
        stats = []
        for stats_file, proc in procs:
            assert proc.wait(timeout=180) == 0
            stats.append(json.loads(stats_file.read_text()))
        assert sum(s["simulated"] for s in stats) == 1
        served_from_peer = sum(
            s["claim_dedup"] + s["sim_disk_hits"] for s in stats
        )
        assert served_from_peer >= 1
        assert ResultCache(cache_dir).claims() == []  # nothing left behind


def _filler(cache: ResultCache, name: str, size: int = 4096) -> str:
    """Store an incompressible payload and return its key."""
    key = hashlib.sha256(name.encode("utf-8")).hexdigest()
    cache.store(key, os.urandom(size))
    return key


class TestSizeCap:
    def test_cap_holds_after_every_store(self, tmp_path):
        cache = ResultCache(tmp_path, max_mb=16 / 1024)  # 16 KiB
        for index in range(12):
            _filler(cache, f"entry-{index}")
            assert cache.size_bytes() <= cache.max_bytes
        assert cache.evictions_size > 0
        assert len(cache.entries()) >= 1

    def test_oldest_mtime_goes_first(self, tmp_path):
        """The least recently used entry (oldest index ``atime``) goes first."""
        cache = ResultCache(tmp_path, max_mb=10 / 1024)
        old = _filler(cache, "old")
        new = _filler(cache, "new")
        _age(cache, old, 100)
        _filler(cache, "trigger")  # pushes the cache over 10 KiB
        assert not cache._path(old).exists()
        assert cache._path(new).exists()

    def test_load_touch_protects_the_entry_being_read(self, tmp_path):
        """An entry a reader just touched is the freshest, never the victim."""
        cache = ResultCache(tmp_path, max_mb=10 / 1024)
        hot = _filler(cache, "hot")
        cold = _filler(cache, "cold")
        _age(cache, hot, 100)
        _age(cache, cold, 99)
        assert cache.load(hot, expected_type=bytes) is not None  # touches it
        _filler(cache, "trigger")
        assert cache._path(hot).exists()  # read-touch saved it...
        assert not cache._path(cold).exists()  # ...so its neighbour went

    def test_just_stored_entry_is_protected(self, tmp_path):
        cache = ResultCache(tmp_path, max_mb=2 / 1024)  # smaller than one entry
        key = _filler(cache, "solo", size=4096)
        assert cache._path(key).exists()

    def test_unbounded_without_cap(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.max_bytes is None
        for index in range(8):
            _filler(cache, f"entry-{index}")
        assert len(cache.entries()) == 8
        assert cache.evictions_size == 0

    def test_cap_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_MAX_MB, "1.5")
        assert ResultCache(tmp_path).max_bytes == int(1.5 * 1024 * 1024)
        monkeypatch.delenv(ENV_CACHE_MAX_MB)
        assert ResultCache(tmp_path).max_bytes is None

    def test_invalid_cap_env_warns(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_MAX_MB, "lots")
        with pytest.warns(RuntimeWarning, match="lots"):
            cache = ResultCache(tmp_path)
        assert cache.max_bytes is None

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_cap_env_warns(self, tmp_path, monkeypatch, raw):
        """A cap that is not a finite number leaves the cache unbounded
        with a warning instead of crashing the cache's construction."""
        monkeypatch.setenv(ENV_CACHE_MAX_MB, raw)
        with pytest.warns(RuntimeWarning, match=f"'{raw}'.*finite"):
            cache = ResultCache(tmp_path)
        assert cache.max_bytes is None

    @pytest.mark.parametrize("raw", ["0", "-4", "-0.5"])
    def test_nonpositive_cap_env_warns_and_disables(
        self, tmp_path, monkeypatch, raw
    ):
        """A zero or negative cap can never admit a store: warn, run
        unbounded — instead of silently evicting everything."""
        monkeypatch.setenv(ENV_CACHE_MAX_MB, raw)
        with pytest.warns(RuntimeWarning, match="positive"):
            cache = ResultCache(tmp_path)
        assert cache.max_bytes is None
        _filler(cache, "survives")
        assert len(cache.entries()) == 1

    @pytest.mark.parametrize("max_mb", [float("inf"), float("-inf"),
                                        float("nan")])
    def test_non_finite_explicit_cap_is_rejected(self, tmp_path, max_mb):
        """An explicit cap that is not a finite number is a caller error:
        it neither crashes in the byte conversion nor means unbounded."""
        with pytest.raises(ValueError, match=f"max_mb.*{max_mb!r}"):
            ResultCache(tmp_path, max_mb=max_mb)

    @pytest.mark.parametrize("max_mb", [0, -4.0])
    def test_nonpositive_explicit_cap_means_unbounded(self, tmp_path, max_mb):
        assert ResultCache(tmp_path, max_mb=max_mb).max_bytes is None

    def test_explicit_cap_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_MAX_MB, "100")
        assert ResultCache(tmp_path, max_mb=1).max_bytes == 1024 * 1024


class TestPrune:
    def test_tmp_files_are_the_tmp_files_under_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        shard_tmp = cache.version_dir / "ab" / "x.pkl.123.tmp"
        trace_tmp = cache.version_dir / "traces" / "t.pkl.456.tmp"
        for path in (shard_tmp, trace_tmp):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"scratch")
        (cache.version_dir / "cd" / "x.tmp").mkdir(parents=True)
        (cache.version_dir / "ab" / "y.pkl").write_bytes(b"entry")
        (cache.version_dir / "ab" / "z.tmp").symlink_to(tmp_path / "gone")
        assert cache.tmp_files() == sorted([shard_tmp, trace_tmp])

    def test_tmp_files_of_a_missing_cache(self, tmp_path):
        assert ResultCache(tmp_path / "absent").tmp_files() == []

    def test_prune_sweeps_everything(self, tmp_path):
        cache = ResultCache(tmp_path, max_mb=8 / 1024)
        cache.max_bytes = None  # fill past the cap without store-time eviction
        for index in range(4):
            _filler(cache, f"entry-{index}")
        cache.max_bytes = 8 * 1024
        _plant_claim(cache, KEY, pid=_reap(), ts=time.time())
        (cache.version_dir / "ab").mkdir(parents=True, exist_ok=True)
        tmp_file = cache.version_dir / "ab" / "x.pkl.99999.tmp"
        tmp_file.write_bytes(b"scratch")
        os.utime(tmp_file, (time.time() - 7200, time.time() - 7200))
        report = cache.prune()
        assert report["evicted"] >= 1
        assert report["claims"] == 1
        assert report["tmp_files"] == 1
        assert report["size_bytes"] <= cache.max_bytes

    def test_cache_prune_cli(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        cache = ResultCache(tmp_path)
        _filler(cache, "entry")
        _plant_claim(cache, KEY, pid=_reap(), ts=time.time())
        assert main(["cache", "prune"]) == 0
        out = capsys.readouterr().out
        assert "1 abandoned claim(s)" in out
        assert "cache size now" in out
        assert ResultCache(tmp_path).claims() == []


class TestSizeLedger:
    """The index's entry rows must agree with ``du`` exactly, at all times."""

    def test_total_matches_disk_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(6):
            _filler(cache, f"entry-{index}", size=1000 + index)
        assert cache.ledger.total_bytes() == cache.size_bytes()
        assert cache.ledger.entry_count() == 6

    def test_replacement_store_is_not_double_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = hashlib.sha256(b"replace-me").hexdigest()
        cache.store(key, os.urandom(2048))
        cache.store(key, os.urandom(8192))  # same key, new size
        assert cache.ledger.entry_count() == 1
        assert cache.ledger.total_bytes() == cache.size_bytes()

    def test_load_eviction_updates_ledger(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = _filler(cache, "bad")
        good = _filler(cache, "good")
        cache._path(bad).write_bytes(b"garbage")
        assert cache.load(bad, expected_type=bytes) is None  # evicts it
        assert cache.evictions == 1
        rows = cache.ledger.rows()
        assert ("result", bad) not in rows
        assert ("result", good) in rows
        assert cache.ledger.total_bytes() == cache.size_bytes()

    def test_repair_after_out_of_band_deletion(self, tmp_path):
        cache = ResultCache(tmp_path)
        gone = _filler(cache, "gone")
        _filler(cache, "kept")
        cache._path(gone).unlink()  # deleted behind the ledger's back
        assert cache.ledger.total_bytes() > cache.size_bytes()  # stale, by design
        assert cache.repair_ledger() == cache.size_bytes()
        assert cache.ledger.entry_count() == 1

    def test_bootstrap_of_pre_ledger_directory(self, tmp_path):
        """A cache populated before the index existed (or whose index was
        deleted) is brought exact by one scan on first touch, and the
        size ledger of the older layout is deleted."""
        seed = ResultCache(tmp_path)
        for index in range(3):
            _filler(seed, f"entry-{index}")
        seed.ledger.close()
        for path in seed.version_dir.glob(f"{INDEX_NAME}*"):
            path.unlink()
        old_ledger = seed.version_dir / "ledger"
        old_ledger.mkdir()
        (old_ledger / "checkpoint.json").write_text("{}", encoding="utf-8")
        cache = ResultCache(tmp_path)
        assert cache.ledger.total_bytes() == cache.size_bytes()
        assert cache.ledger.entry_count() == 3
        assert cache.ledger.rebuilds == 1
        assert not old_ledger.exists()

    def test_store_hot_path_never_scans_the_directory(self, tmp_path):
        """The acceptance criterion: zero directory-wide stat scans per
        store — the ledger answers the size question."""
        cache = ResultCache(tmp_path, max_mb=16 / 1024)
        _filler(cache, "warmup")  # ledger initialized here

        def scan(*args, **kwargs):
            raise AssertionError("directory scan on the store hot path")

        cache.entries = scan
        cache._scan_entries = scan
        for index in range(10):  # crosses the cap: eviction path included
            _filler(cache, f"entry-{index}")
        assert cache.evictions_size > 0


class TestLedgerEviction:
    def test_live_claim_is_never_a_victim(self, tmp_path):
        cache = ResultCache(tmp_path)
        claimed = _filler(cache, "claimed")
        doomed = _filler(cache, "doomed")
        _age(cache, claimed, 100)  # least recently used: first victim
        assert cache.try_claim(claimed)  # ...but a live process holds it
        cache.max_bytes = 10 * 1024
        _filler(cache, "trigger")
        assert cache._path(claimed).exists()
        assert not cache._path(doomed).exists()
        assert cache.ledger.total_bytes() == cache.size_bytes()

    def test_trace_entries_evicted_before_results(self, tmp_path):
        from repro.workloads.suite import fingerprint, generate

        cache = ResultCache(tmp_path)
        results = [_filler(cache, f"result-{i}") for i in range(2)]
        key = trace_store_key(fingerprint("adpcm", 300))
        cache.trace_store().store(key, generate("adpcm", length=300))
        # Results are made *older* than the trace; the trace must still
        # be the first victim — kind outranks age.
        for result_key in results:
            _age(cache, result_key, 100)
        cache.max_bytes = cache.ledger.total_bytes() - 1
        assert cache.enforce_size_cap() == 1
        assert cache.entries("trace") == []
        assert all(cache._path(k).exists() for k in results)
        assert cache.ledger.total_bytes() == cache.size_bytes()

    def test_vanished_entry_heals_the_ledger(self, tmp_path):
        """An evictor that died between unlink and row delete leaves a
        ghost row; enforcement heals it instead of evicting live data."""
        cache = ResultCache(tmp_path)
        ghost = _filler(cache, "ghost")
        kept = _filler(cache, "kept")
        cache._path(ghost).unlink()
        cache.max_bytes = 6 * 1024  # index thinks ~8 KiB; disk holds ~4
        assert cache.enforce_size_cap() == 0  # healing alone makes room
        assert cache._path(kept).exists()
        assert cache.ledger.entry_count() == 1
        assert cache.ledger.total_bytes() == cache.size_bytes()


class TestMetricsSnapshot:
    def test_snapshot_reflects_live_context(self, tmp_path):
        from repro.experiments.report import stats_payload

        context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        context.run("adpcm", "Base")
        payload = stats_payload(context, wall_s=1.25, fast=True)
        section = payload["metrics"]
        assert section["enabled"] is True
        assert section["size_bytes"] == context.cache.size_bytes()
        assert section["counters"]["stores"] == context.cache.stores >= 1
        assert section["trace_entries"] == 1
        assert payload["wall_s"] == 1.25
        assert payload["fast"] is True
        assert payload["simulated"] == 1
        json.dumps(payload)  # the --log-json path needs it serializable

    def test_snapshot_without_context_uses_env_cache(self, tmp_path, monkeypatch):
        from repro.experiments.metrics import metrics_snapshot

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        _filler(ResultCache(tmp_path), "entry", size=2000)
        snapshot = metrics_snapshot()
        assert snapshot["cache"]["entries"] == 1
        assert snapshot["cache"]["result_entries"] == 1
        assert snapshot["cache"]["trace_entries"] == 0
        assert snapshot["schema"] == 6
        # A fresh process's counters are all zero, so none are shown.
        assert snapshot["cache"]["index"] == {"claim_rows": 0}
        assert "counters" not in snapshot["cache"]
        assert set(snapshot) == {"schema", "ts", "cache"}


class TestLedgerStress:
    def test_multiprocess_stores_stay_exact_and_capped(self, tmp_path):
        """N concurrent writers under a tight cap: the index total must
        equal du exactly at quiescence, the watermark must hold, and a
        claimed entry must survive every eviction pass."""
        script = tmp_path / "writer.py"
        script.write_text(
            "import hashlib, os, sys\n"
            "from repro.experiments.cache import ResultCache\n"
            "cache = ResultCache(sys.argv[1], max_mb=32 / 1024)\n"
            "for i in range(10):\n"
            "    key = hashlib.sha256(\n"
            "        f'{sys.argv[2]}-{i}'.encode()).hexdigest()\n"
            "    cache.store(key, os.urandom(3000))\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        cache_dir = tmp_path / "shared-cache"
        parent = ResultCache(cache_dir, max_mb=32 / 1024)
        pinned = _filler(parent, "pinned", size=3000)
        assert parent.try_claim(pinned)  # held by this live process
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(cache_dir), f"writer-{i}"],
                env=env,
            )
            for i in range(3)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        cache = ResultCache(cache_dir, max_mb=32 / 1024)
        assert cache._path(pinned).exists()
        assert cache.ledger.total_bytes() == cache.size_bytes()
        assert cache.ledger.total_bytes() <= cache.max_bytes

    def test_kill_mid_run_recovers(self, tmp_path):
        """SIGKILL a writer mid-store: whatever half-state it leaves (a
        renamed blob without its row, an open write transaction), repair
        restores exactness and subsequent stores are not blocked."""
        script = tmp_path / "loop.py"
        script.write_text(
            "import hashlib, itertools, os, sys\n"
            "from repro.experiments.cache import ResultCache\n"
            "cache = ResultCache(sys.argv[1])\n"
            "for i in itertools.count():\n"
            "    key = hashlib.sha256(f'victim-{i}'.encode()).hexdigest()\n"
            "    cache.store(key, os.urandom(2048))\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        cache_dir = tmp_path / "cache"
        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache_dir)], env=env)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(ResultCache(cache_dir).entries()) >= 3:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("writer made no progress before the kill")
        finally:
            proc.kill()
            proc.wait(timeout=30)
        cache = ResultCache(cache_dir)
        assert cache.repair_ledger() == cache.size_bytes()
        _filler(cache, "after-the-crash")  # stores still work
        assert cache.ledger.total_bytes() == cache.size_bytes()


class TestIndexForkSafety:
    def test_forked_child_reopens_the_index(self, tmp_path):
        """Pool workers fork from a parent that holds the index open. The
        child must open its own connection (never use the inherited one),
        and the parent's connection must keep working afterwards."""
        cache = ResultCache(tmp_path)
        before = _filler(cache, "parent-before")  # the parent opens the index
        to_parent_r, to_parent_w = os.pipe()
        to_child_r, to_child_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: store and load through the same cache
            status = 1
            try:
                child = _filler(cache, "child")
                assert cache.load(child, expected_type=bytes) is not None
                assert cache.load(before, expected_type=bytes) is not None
                os.write(to_parent_w, child.encode("ascii"))
                os.read(to_child_r, 64)  # the parent has stored again
                keys = {key for _, key in cache.ledger.rows()}
                after = hashlib.sha256(b"parent-after").hexdigest()
                assert keys == {before, child, after}
                status = 0
            finally:
                os._exit(status)
        child = os.read(to_parent_r, 64).decode("ascii")
        after = _filler(cache, "parent-after")
        os.write(to_child_w, b"go")
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        conn = cache.ledger.connection()
        assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        assert cache.ledger.total_bytes() == cache.size_bytes()
        assert {key for _, key in cache.ledger.rows()} == {before, child, after}
        fresh = ResultCache(tmp_path)  # a new connection sees the same rows
        assert fresh.ledger.rows() == cache.ledger.rows()
        for fd in (to_parent_r, to_parent_w, to_child_r, to_child_w):
            os.close(fd)
