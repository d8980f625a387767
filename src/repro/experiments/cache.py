"""Persistent on-disk cache of simulation and thermal results.

Every figure consumes the same (benchmark x configuration) grid of
trace-replay simulations, and those simulations are deterministic: the
trace is a pure function of (benchmark name, length, seed) and the timing
model is a pure function of (trace, config, warmup).  Thermal solves are
equally deterministic — a pure function of the solver geometry and the
power grids.  The cache exploits that determinism to make repeated CLI
invocations, benchmark sessions, and report regenerations hit disk
instead of re-simulating or re-solving.

Layout::

    .repro_cache/
        v2/                     <- one directory per key-schema version
            ab/
                ab3f...e2.pkl   <- one checksummed pickled result
                                   (SimulationResult, ThermalResult, ...)
                                   per key

Each entry is a 16-byte header (the magic ``RPC2``, the payload length
and the payload's CRC-32) followed by one pickle of the result.
:meth:`ResultCache.load` checks all three before it unpickles, so a
truncated, bit-flipped or foreign file is a miss that deletes the entry,
never a wrong result or an exception.  Entries are not compressed: most
of their bytes are float64 temperature grids, which gzip shrank by only
~15 % while its decompression dominated a warm report's cache reads.

Keys are SHA-256 content hashes over everything a result depends on.
For simulations: the key-schema version, the workload-generator version,
the timing-simulator version, the benchmark name, the fidelity knobs
(trace length, warmup), and every field of the :class:`CPUConfig`.  For
thermal solves (:func:`thermal_key`): the thermal model version, the
solver's geometry digest, and the power grids' raw bytes.
Changing any of these yields a different key, so stale entries are never
*returned* — and bumping :data:`CACHE_SCHEMA_VERSION` moves the cache to
a fresh ``v<N>/`` directory, leaving old versions inert until
``python -m repro cache clear`` (or :meth:`ResultCache.prune_stale`)
removes them.

Every thermal-kind key (thermal, transient, leakage, interval trace)
holds the same geometry digest,
:meth:`~repro.thermal.solver.ThermalSolver.result_digest`: SHA-256 over
``json.dumps`` of the solver's ``result_key()``, with the separators
and key sorting :func:`content_key` uses, computed once per solver.  It
skips :func:`_canonical`, the walk the config digest takes to spell
enums and dict keys, because a result key holds neither, only nested
tuples of strings and numbers, and ``json.dumps`` writes a tuple as the
list ``_canonical`` would make.  So the digest, and every key built on
it, equals ``content_key(_canonical(result_key))``
(``tests/experiments/test_cache_keys.py`` checks every solver a report
builds).

The cache is on by default; ``REPRO_CACHE=0`` disables it and
``REPRO_CACHE_DIR`` relocates it.

Cross-process coordination lives in one WAL-mode SQLite index,
``v<N>/index.sqlite`` (:class:`CacheIndex`), with two tables:

* ``entries(kind, key, bytes, atime)`` — one row per result or
  compiled-trace entry.  A store records its row after the blob's
  ``os.replace``; a load sets ``atime`` before it reads the blob.
  ``REPRO_CACHE_MAX_MB`` sets a high-water mark: after every store,
  :meth:`ResultCache.enforce_size_cap` sums the rows and, if the cache
  is over the mark, evicts inside one ``BEGIN IMMEDIATE`` transaction —
  compiled traces first (large, cheap to regenerate), then results,
  least recently used first — skipping the entry just stored and any
  key a live process holds a claim on.  The transaction is the
  cross-process eviction lock, so two writers never both evict below
  the mark.
* ``claims(key, pid, ts)`` — one row per key a process is computing, so
  concurrent cold starts on the same key deduplicate to one
  computation: the loser waits for the winner's entry instead of
  recomputing, and takes over claims whose holder died (or that are
  older than :data:`DEFAULT_CLAIM_STALE_S`).  Claims are advisory:
  losing one never blocks progress.

The blobs stay plain files, so a trace loads memory-mapped and a
cache without an index (an older layout, or a deleted index) is
rebuilt from one directory scan on first open.  Any ``sqlite3`` error
degrades to uncoordinated operation: a claim is then always won, a
store still lands its blob and a load still serves a hit.  WAL needs
shared memory between the processes that use one index, so
``REPRO_CACHE_DIR`` must be on a local filesystem, not NFS.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import json
import math
import os
import pickle
import shutil
import struct
import time
import warnings
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cpu.config import CPUConfig
from repro.cpu.results import SIMULATOR_VERSION, SimulationResult
from repro.thermal.transient import TRANSIENT_MODEL_VERSION
from repro.workloads.parameters import GENERATOR_VERSION

#: Bump when the cache key schema or the pickled payload layout changes.
CACHE_SCHEMA_VERSION = 2

#: Suffix of result entries (and, with ``.<pid>.tmp`` appended, of their
#: writers' scratch files).
ENTRY_SUFFIX = ".pkl"

#: Result-entry header: magic, payload length, CRC-32 of the payload.
ENTRY_HEADER = struct.Struct("<4sQI")
ENTRY_MAGIC = b"RPC2"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable relocating the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable disabling the cache ("0", "off", "no", "false").
ENV_CACHE_ENABLED = "REPRO_CACHE"

#: Environment variable bounding the cache size (megabytes, float OK).
ENV_CACHE_MAX_MB = "REPRO_CACHE_MAX_MB"

_DISABLED_VALUES = frozenset({"0", "off", "no", "false"})

#: Age beyond which a claim is stale even if its holder pid is alive
#: (a wedged holder must not block other processes forever).
DEFAULT_CLAIM_STALE_S = 1800.0

#: File name of the coordination index inside the version directory.
INDEX_NAME = "index.sqlite"

#: How long an index statement waits for a peer's write lock before it
#: gives up and the operation runs uncoordinated.
INDEX_BUSY_TIMEOUT_S = 5.0

#: The index's tables, created by the first rebuild.
_INDEX_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries (kind TEXT NOT NULL, key TEXT NOT NULL,"
    " bytes INTEGER NOT NULL, atime REAL NOT NULL, PRIMARY KEY (kind, key))"
    " WITHOUT ROWID",
    "CREATE TABLE IF NOT EXISTS claims (key TEXT PRIMARY KEY,"
    " pid INTEGER NOT NULL, ts REAL NOT NULL) WITHOUT ROWID",
)


def env_positive_number(name: str) -> Optional[float]:
    """A positive finite number from the environment variable ``name``,
    or None (unset, or invalid with a warning)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and value > 0:
        return value
    warnings.warn(
        f"ignoring invalid {name}={raw!r} (not a finite positive number)",
        RuntimeWarning,
        stacklevel=3,
    )
    return None


def _canonical(value):
    """JSON-serializable canonical form of a config field value."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


@functools.lru_cache(maxsize=256)
def _config_digest(config: CPUConfig) -> str:
    """Digest of every :class:`CPUConfig` field, memoized by the (frozen,
    hashable) config's value: equal configs share one digest however
    they were built.  The fields are scalars and enums, so they are read
    as they are; ``dataclasses.asdict`` would deep-copy each into the
    same dict."""
    return content_key(_canonical(
        {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}))


def simulation_key(
    benchmark: str,
    config: CPUConfig,
    trace_length: int,
    warmup: int,
) -> str:
    """Content hash identifying one deterministic simulation."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "simulator": SIMULATOR_VERSION,
        "generator": GENERATOR_VERSION,
        "benchmark": benchmark,
        "trace_length": trace_length,
        "warmup": warmup,
        "config": _config_digest(config),
    }
    return content_key(payload)


def content_key(payload: dict, arrays: Iterable = ()) -> str:
    """SHA-256 over a canonical JSON ``payload``, then each array's shape
    and raw float64 bytes — the one digest behind every cache key."""
    import numpy as np

    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    for array in arrays:
        array = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def thermal_key(solver, die_power_grids) -> str:
    """Content hash identifying one deterministic thermal solve.

    Covers the solver's full result geometry (stack layers, floorplan,
    grid resolution, spreader, boundary conditions — see
    :meth:`repro.thermal.solver.ThermalSolver.result_key`) plus the raw
    bytes of every per-die power grid.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "thermal",
        "geometry": solver.result_digest(),
    }
    return content_key(payload, die_power_grids)


def transient_key(solver, dt_s: float, duration_s: float,
                  initial_k: Optional[float], schedule) -> Optional[str]:
    """Content hash identifying one deterministic transient run, or
    ``None`` when the run cannot be cached.

    Covers the steady geometry
    (:meth:`~repro.thermal.solver.ThermalSolver.result_key`), the
    per-layer heat capacities, the integration window, the transient
    model version, and the schedule's
    :meth:`~repro.thermal.transient.PowerSchedule.cache_token`.  A
    schedule without a token yields ``None``.
    """
    token = schedule.cache_token()
    if token is None:
        return None
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "transient",
        "transient": TRANSIENT_MODEL_VERSION,
        "geometry": solver.result_digest(),
        "capacities": [
            layer.material.heat_capacity_j_m3k for layer in solver.stack.layers
        ],
        "dt_s": float(dt_s),
        "duration_s": float(duration_s),
        "initial_k": None if initial_k is None else float(initial_k),
        "schedule": token,
    }
    return content_key(payload)


def leakage_key(solver, dynamic_grids, leakage_grids, reference_k: float,
                efold_k: float, max_iterations: int,
                tolerance_k: float) -> str:
    """Content hash identifying one leakage-temperature fixed point
    (:func:`repro.thermal.feedback.solve_with_leakage_feedback`): the
    result geometry, the loop parameters, and the raw bytes of the
    dynamic and reference-leakage grids."""
    from repro.thermal.feedback import FEEDBACK_MODEL_VERSION

    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "leakage_feedback",
        "feedback": FEEDBACK_MODEL_VERSION,
        "geometry": solver.result_digest(),
        "dies": len(dynamic_grids),
        "reference_k": float(reference_k),
        "efold_k": float(efold_k),
        "max_iterations": int(max_iterations),
        "tolerance_k": float(tolerance_k),
    }
    return content_key(payload, [*dynamic_grids, *leakage_grids])


def interval_trace_key(
    sim_key: str,
    interval_insts: int,
    activity_scale: float,
    core_count: int,
    solver,
) -> str:
    """Content hash identifying one interval power trace.

    Covers the simulation it was extracted from (``sim_key`` already
    folds in trace, config, simulator and generator versions), the
    interval granularity, the calibrated power scale, the core
    replication factor, and the rasterization geometry (the solver's
    :meth:`~repro.thermal.solver.ThermalSolver.result_key`, since the
    trace stores chip-resolution per-die grids).
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "interval_trace",
        "sim": sim_key,
        "interval_insts": interval_insts,
        "activity_scale": activity_scale,
        "core_count": core_count,
        "geometry": solver.result_digest(),
    }
    return content_key(payload)


def _unpack_entry(blob: bytes):
    """The result a cache entry's bytes hold.

    Raises :class:`ValueError` unless the header's magic, length and
    CRC-32 all match the payload, and passes on whatever unpickling the
    verified payload raises.
    """
    if len(blob) < ENTRY_HEADER.size:
        raise ValueError("cache entry shorter than its header")
    magic, length, crc = ENTRY_HEADER.unpack_from(blob)
    payload = memoryview(blob)[ENTRY_HEADER.size:]
    if (magic != ENTRY_MAGIC or length != len(payload)
            or zlib.crc32(payload) != crc):
        raise ValueError("cache entry fails its header check")
    return pickle.loads(payload)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def _stale(pid: int, ts: float, max_age_s: float) -> bool:
    """Whether a claim by ``pid`` taken at ``ts`` is abandoned: its holder
    died, or it is older than ``max_age_s`` (a wedged holder)."""
    return not _pid_alive(pid) or (time.time() - ts) > max_age_s


def _connect(path: str):
    """An autocommit connection to the index at ``path`` — the one factory
    :mod:`repro.experiments.faults` wraps.  ``sqlite3`` loads here, so
    commands that never touch the cache never import it."""
    import sqlite3

    return sqlite3.connect(path, timeout=INDEX_BUSY_TIMEOUT_S,
                           isolation_level=None, check_same_thread=False)


def _index_errors() -> tuple:
    """The exceptions that degrade an index operation to uncoordinated
    (evaluated only when an ``except`` clause needs them)."""
    import sqlite3

    return (sqlite3.Error, OSError)


@contextlib.contextmanager
def _transaction(conn):
    """``BEGIN IMMEDIATE`` … ``COMMIT``: holds the index's write lock, so
    peers' writes wait (up to :data:`INDEX_BUSY_TIMEOUT_S`) until it ends."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
        conn.execute("COMMIT")
    except BaseException:
        conn.rollback()
        raise


#: Connections a forked child inherited from its parent.  The child must
#: neither use nor close them (closing would drop locks the parent holds),
#: so they are kept referenced here for the child's lifetime.
_INHERITED: List = []


class CacheIndex:
    """The cache's WAL-mode SQLite index (see the module docstring).

    Each process holds one connection, opened on first use and reopened
    when :func:`os.getpid` changes (pool workers fork from a parent that
    may hold one).  An index that was never built is rebuilt from
    ``scan``, a callable returning ``{(kind, key): (bytes, atime)}`` for
    every entry on disk.  :meth:`write` and :meth:`read` degrade: they
    return ``None`` and ``[]`` when the index is unavailable.
    """

    def __init__(self, path: os.PathLike, scan):
        self.path = Path(path)
        self._scan = scan
        self._conn = None
        self._pid: Optional[int] = None
        #: directory-scan rebuilds this process ran (metrics)
        self.rebuilds = 0

    def connection(self):
        """This process's connection (raises when the index cannot open)."""
        if self._pid == os.getpid():
            return self._conn
        if self._conn is not None:
            _INHERITED.append(self._conn)
            self._conn = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = _connect(str(self.path))
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            if conn.execute("PRAGMA user_version").fetchone()[0] == 0:
                self._rebuild(conn, bootstrap=True)
        except BaseException:
            conn.close()
            raise
        self._conn, self._pid = conn, os.getpid()
        return conn

    def close(self) -> None:
        """Close this process's connection; the next use reopens it."""
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = self._pid = None

    def transaction(self):
        """A write transaction on this process's connection."""
        return _transaction(self.connection())

    def write(self, sql: str, args: tuple = ()) -> Optional[int]:
        """Run one autocommit statement; its row count, or ``None`` when
        the index is unavailable."""
        try:
            return self.connection().execute(sql, args).rowcount
        except _index_errors():
            return None

    def read(self, sql: str, args: tuple = ()) -> list:
        """All rows of one query (``[]`` when the index is unavailable)."""
        try:
            return self.connection().execute(sql, args).fetchall()
        except _index_errors():
            return []

    # ------------------------------------------------------------------ #

    def record_store(self, kind: str, key: str, nbytes: int) -> None:
        """Account a stored (or replaced) entry of ``nbytes`` bytes."""
        self.write("INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
                   (kind, key, int(nbytes), time.time()))

    def record_unlink(self, kind: str, key: str) -> None:
        """Account a removed entry."""
        self.write("DELETE FROM entries WHERE kind = ? AND key = ?", (kind, key))

    def touch(self, kind: str, keys: Sequence[str]) -> None:
        """Mark entries as just used, so eviction takes them last: one
        transaction however many keys (a no-op when the index is
        unavailable)."""
        if not keys:
            return
        now = time.time()
        try:
            with self.transaction() as conn:
                conn.executemany(
                    "UPDATE entries SET atime = ? WHERE kind = ? AND key = ?",
                    [(now, kind, key) for key in keys])
        except _index_errors():
            pass

    def _scalar(self, sql: str) -> int:
        rows = self.read(sql)
        return rows[0][0] if rows else 0

    def total_bytes(self) -> int:
        """The tracked size of every entry."""
        return self._scalar("SELECT COALESCE(SUM(bytes), 0) FROM entries")

    def entry_count(self) -> int:
        return self._scalar("SELECT COUNT(*) FROM entries")

    def claim_count(self) -> int:
        return self._scalar("SELECT COUNT(*) FROM claims")

    def rows(self) -> Dict[Tuple[str, str], int]:
        """``{(kind, key): bytes}`` for every entry row."""
        return {(kind, key): nbytes for kind, key, nbytes
                in self.read("SELECT kind, key, bytes FROM entries")}

    def rebuild(self) -> int:
        """Replace every entry row with a directory scan; returns the
        tracked byte total.  This is the crash-recovery path: writers
        killed between a rename and its row, or out-of-band deletions,
        resync here."""
        return self._rebuild(self.connection())

    def _rebuild(self, conn, bootstrap: bool = False) -> int:
        # The scan runs under the write lock: a concurrent store records
        # its row either before the scan (its blob is already renamed into
        # place, so the scan sees it too) or after the rebuild commits.
        with _transaction(conn):
            for statement in _INDEX_SCHEMA:
                conn.execute(statement)
            if bootstrap and conn.execute("PRAGMA user_version").fetchone()[0]:
                return 0  # a peer process built it first
            scanned = self._scan()
            conn.execute("DELETE FROM entries")
            conn.executemany(
                "INSERT INTO entries VALUES (?, ?, ?, ?)",
                [(kind, key, nbytes, atime)
                 for (kind, key), (nbytes, atime) in scanned.items()])
            conn.execute("PRAGMA user_version = 1")
        # An older cache's size ledger: this index supersedes it.
        shutil.rmtree(self.path.parent / "ledger", ignore_errors=True)
        self.rebuilds += 1
        return sum(nbytes for nbytes, _ in scanned.values())


class ResultCache:
    """Load/store :class:`SimulationResult` objects keyed by content hash.

    ``max_mb`` caps the cache's size; ``None`` reads the cap from
    ``REPRO_CACHE_MAX_MB`` and zero or a negative number means unbounded.
    A non-finite ``max_mb`` raises :class:`ValueError`.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_mb: Optional[float] = None,
    ):
        if root is None:
            root = os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.version_dir = self.root / f"v{CACHE_SCHEMA_VERSION}"
        if max_mb is None:
            max_mb = env_positive_number(ENV_CACHE_MAX_MB) or 0
        elif not math.isfinite(max_mb):
            raise ValueError(
                f"max_mb must be a finite number of megabytes, got {max_mb!r}")
        self.max_bytes = int(max_mb * 1024 * 1024) if max_mb > 0 else None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: bad entries (corrupt, truncated, wrong type) deleted on load
        self.evictions = 0
        #: good entries evicted to respect the size high-water mark
        self.evictions_size = 0
        #: keys whose claim rows this cache inserted and still holds
        self._claimed: set = set()
        self._index = CacheIndex(self.version_dir / INDEX_NAME,
                                 scan=lambda: self._scan_entries())

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """The default cache, or ``None`` when disabled via REPRO_CACHE."""
        flag = os.environ.get(ENV_CACHE_ENABLED, "").strip().lower()
        if flag in _DISABLED_VALUES:
            return None
        return cls()

    # ------------------------------------------------------------------ #
    # Index

    @property
    def ledger(self) -> CacheIndex:
        """The cache's index, opened (and on a cache that has none,
        rebuilt from a directory scan) on first touch in each process."""
        try:
            self._index.connection()
        except _index_errors():
            pass  # unavailable: every index operation degrades
        return self._index

    def _scan_entries(self) -> Dict[Tuple[str, str], Tuple[int, float]]:
        """Ground-truth index rows from a full directory scan (rebuild)."""
        entries: Dict[Tuple[str, str], Tuple[int, float]] = {}
        for path in self.entries():
            try:
                st = path.stat()
            except OSError:
                continue
            entries["result", path.name.split(".")[0]] = (st.st_size, st.st_mtime)
        store = self.trace_store()
        for npy in store.entries():
            key = npy.name[: -len(".npy")]
            total = 0
            ts = 0.0
            for part in (npy, store._meta_path(key)):
                try:
                    st = part.stat()
                except OSError:
                    continue
                total += st.st_size
                ts = max(ts, st.st_mtime)
            entries["trace", key] = (total, ts)
        return entries

    def repair_ledger(self) -> int:
        """Rebuild the index's entry rows from a directory scan; returns
        the exact tracked byte total (0 when the index is unavailable)."""
        try:
            return self._index.rebuild()
        except _index_errors():
            return 0

    def _entry_paths(self, kind: str, key: str) -> Tuple[Path, ...]:
        """The on-disk files backing one index entry (primary first)."""
        if kind == "trace":
            store = self.trace_store()
            return (store.npy_path(key), store._meta_path(key))
        return (self._path(key),)

    # ------------------------------------------------------------------ #

    def _path(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def touch(self, keys: Sequence[str]) -> None:
        """Mark the entries of ``keys`` as just used, in one index
        transaction: a caller about to load many entries touches them all
        first and loads each with ``touch=False``."""
        self._index.touch("result", keys)

    def load(self, key: str, expected_type: type = SimulationResult,
             touch: bool = True):
        """The cached result for ``key``, or ``None`` on a miss.

        ``expected_type`` guards against key collisions across result
        kinds (simulation vs thermal).  Bad entries — truncated writes,
        flipped bits, incompatible pickles, payloads of the wrong type —
        are deleted and treated as misses, so one damaged file costs one
        re-run, not a re-read-and-miss on every subsequent load.
        ``touch=False`` skips the index touch (the caller made it with
        :meth:`touch`).
        """
        # Touch *before* reading: the size-cap evictor removes the least
        # recently used entries first, so an entry being read is the
        # freshest in the cache and never the victim.
        if touch:
            self._index.touch("result", [key])
        path = self._path(key)
        try:
            result = _unpack_entry(path.read_bytes())
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Unreadable, damaged, or a verified payload that still fails
            # to unpickle (an incompatible pickle: a renamed class, say).
            self._evict(path)
            self.misses += 1
            return None
        if not isinstance(result, expected_type):
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            return
        self.evictions += 1
        self._index.record_unlink("result", path.name.split(".")[0])

    def store(self, key: str, result) -> None:
        """Persist ``result`` under ``key`` (atomic within a filesystem)."""
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            with open(tmp, "wb") as stream:
                stream.write(ENTRY_HEADER.pack(
                    ENTRY_MAGIC, len(payload), zlib.crc32(payload)))
                stream.write(payload)
            os.replace(tmp, path)
        except OSError:
            # A read-only or full filesystem degrades to cacheless operation.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1
        self._index.record_store("result", key, ENTRY_HEADER.size + len(payload))
        self.enforce_size_cap(protect=path)

    # ------------------------------------------------------------------ #
    # Size high-water mark

    def enforce_size_cap(self, protect=None) -> int:
        """Evict entries until the index total fits ``max_bytes``.

        The total is one ``SUM`` over the index, never a directory-wide
        ``stat`` scan, so every process sharing the cache sees the same
        exact number.  Eviction runs in one write transaction, so
        concurrent writers evict one at a time and never below the
        watermark.  Victim policy: compiled-trace entries go first
        (large, cheap to regenerate), then result entries, each least
        recently used first; ``protect`` (the entry or entries just
        stored) and keys with a live claim (a peer is producing or
        waiting on them) are never victims.  Returns the number of
        entries removed.
        """
        if self.max_bytes is None or self._index.total_bytes() <= self.max_bytes:
            return 0
        if protect is None:
            protected = frozenset()
        elif isinstance(protect, (str, os.PathLike)):
            protected = frozenset((Path(protect),))
        else:
            protected = frozenset(Path(p) for p in protect)
        removed = 0
        try:
            with self._index.transaction() as conn:
                rows = conn.execute(
                    "SELECT kind, key, bytes FROM entries"
                    " ORDER BY kind != 'trace', atime").fetchall()
                total = sum(nbytes for _, _, nbytes in rows)
                claimed = {key for key, pid, ts
                           in conn.execute("SELECT key, pid, ts FROM claims")
                           if not _stale(pid, ts, DEFAULT_CLAIM_STALE_S)}
                candidates = []
                for kind, key, nbytes in rows:
                    paths = self._entry_paths(kind, key)
                    if paths[0].exists():
                        candidates.append((kind, key, nbytes, paths))
                        continue
                    # Vanished behind the index's back (a writer killed
                    # between unlink and row delete): heal the row.
                    conn.execute("DELETE FROM entries WHERE kind = ? AND key = ?",
                                 (kind, key))
                    total -= nbytes
                for kind, key, nbytes, paths in candidates:
                    if total <= self.max_bytes:
                        break
                    if protected and not protected.isdisjoint(paths):
                        continue
                    if kind == "result" and key in claimed:
                        continue
                    try:
                        paths[0].unlink()
                    except FileNotFoundError:
                        pass  # removed out of band a moment ago: heal
                    except OSError:
                        continue
                    else:
                        removed += 1
                        self.evictions_size += 1
                    for extra in paths[1:]:
                        try:
                            extra.unlink()
                        except OSError:
                            pass
                    conn.execute("DELETE FROM entries WHERE kind = ? AND key = ?",
                                 (kind, key))
                    total -= nbytes
        except _index_errors():
            pass  # index unavailable: the next store enforces again
        return removed

    # ------------------------------------------------------------------ #
    # Cross-process claims

    def try_claim(self, key: str) -> bool:
        """Atomically claim ``key`` for this cache.

        True means "go compute" — this cache inserted the claim row
        (exactly one can) or holds it already (a dispatch of its own not
        yet collected), or the index is unavailable, in which case
        running uncoordinated is the only safe degradation.  False means
        a peer holds the claim; wait for its entry instead.
        """
        if key in self._claimed:
            return True
        won = self._index.write("INSERT OR IGNORE INTO claims VALUES (?, ?, ?)",
                                (key, os.getpid(), time.time())) != 0
        if won:
            self._claimed.add(key)
        return won

    def claim_holder(self, key: str) -> Optional[dict]:
        """The claim's ``{"pid": ..., "ts": ...}``, or ``None`` when unclaimed."""
        rows = self._index.read("SELECT pid, ts FROM claims WHERE key = ?", (key,))
        return {"pid": rows[0][0], "ts": rows[0][1]} if rows else None

    def claim_stale(
        self, key: str, max_age_s: float = DEFAULT_CLAIM_STALE_S
    ) -> bool:
        """Whether ``key``'s claim is abandoned (dead holder or too old)."""
        holder = self.claim_holder(key)
        return holder is not None and _stale(holder["pid"], holder["ts"], max_age_s)

    def break_claim(self, key: str) -> None:
        """Forcibly remove ``key``'s claim (stale-claim takeover)."""
        self._claimed.discard(key)
        self._index.write("DELETE FROM claims WHERE key = ?", (key,))

    def release_claim(self, key: str) -> None:
        """Remove ``key``'s claim if this process holds it."""
        self._claimed.discard(key)
        self._index.write("DELETE FROM claims WHERE key = ? AND pid = ?",
                         (key, os.getpid()))

    def claims(self) -> List[str]:
        """The keys of every claim row, sorted."""
        rows = self._index.read("SELECT key FROM claims ORDER BY key")
        return [row[0] for row in rows]

    def sweep_claims(self, max_age_s: float = DEFAULT_CLAIM_STALE_S) -> int:
        """Delete claims abandoned by dead holders (or older than
        ``max_age_s``); returns the count removed."""
        removed = 0
        for key, pid, ts in self._index.read("SELECT key, pid, ts FROM claims"):
            if _stale(pid, ts, max_age_s) and self._index.write(
                    "DELETE FROM claims WHERE key = ? AND pid = ? AND ts = ?",
                    (key, pid, ts)):
                removed += 1
        return removed

    # ------------------------------------------------------------------ #

    def entries(self) -> List[Path]:
        """All entry files of the current schema version, sorted."""
        if not self.version_dir.is_dir():
            return []
        return sorted(self.version_dir.glob(f"*/*{ENTRY_SUFFIX}"))

    def stale_version_dirs(self) -> List[Path]:
        """``v<N>/`` directories left behind by older key schemas."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.iterdir()
            if p.is_dir() and p.name.startswith("v") and p != self.version_dir
        )

    def size_bytes(self) -> int:
        """Recursive size of the result entries, tolerant of entries a
        concurrent evictor removes between ``entries()`` and ``stat``."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    # ------------------------------------------------------------------ #
    # Temp-file hygiene

    def tmp_files(self) -> List[Path]:
        """All ``*.tmp`` writer scratch files anywhere under the cache,
        sorted.  One ``os.scandir`` per shard and trace directory: the
        directory entries' types need no ``stat``, and only a name that
        ends in ``.tmp`` costs one."""
        found = []
        pending = [self.root]
        while pending:
            try:
                with os.scandir(pending.pop()) as directory:
                    for entry in directory:
                        if entry.is_dir(follow_symlinks=False):
                            pending.append(entry.path)
                        elif entry.name.endswith(".tmp") and entry.is_file():
                            found.append(Path(entry.path))
            except OSError:
                continue  # missing, or removed by a concurrent clear
        return sorted(found)

    @staticmethod
    def _writer_alive(path: Path) -> bool:
        """Whether the process that owns a ``<key>.pkl.<pid>.tmp`` lives."""
        parts = path.name.split(".")
        try:
            pid = int(parts[-2])
        except (IndexError, ValueError):
            return False  # not one of ours; treat as abandoned
        return _pid_alive(pid)

    def sweep_tmp(self, max_age_s: float = 3600.0) -> int:
        """Delete scratch files abandoned by writers that died mid-store.

        A ``store`` that is interrupted between writing its temp file and
        the atomic ``os.replace`` leaks the temp file forever; this
        removes any whose writer process is gone, plus any older than
        ``max_age_s`` (stores take milliseconds — an hour-old temp file
        is garbage no matter who owns the pid now).  Returns the count.
        """
        removed = 0
        now = time.time()
        for path in self.tmp_files():
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # already gone (concurrent sweep or writer finish)
            if self._writer_alive(path) and age < max_age_s:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def clear(self) -> int:
        """Remove the whole cache directory; returns the entry count removed."""
        count = len(self.entries())
        self._index.close()
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)
        return count

    def prune_stale(self) -> int:
        """Remove entries from older schema versions; returns dirs removed."""
        stale = self.stale_version_dirs()
        for directory in stale:
            shutil.rmtree(directory, ignore_errors=True)
        return len(stale)

    def prune(self) -> dict:
        """One-shot hygiene pass: stale schema dirs, abandoned temp files
        and claims, an index rebuild from a directory scan, and size-cap
        enforcement.  Returns what was removed."""
        return {
            "stale_dirs": self.prune_stale(),
            "tmp_files": self.sweep_tmp(),
            "claims": self.sweep_claims(),
            "index_bytes": self.repair_ledger(),
            "evicted": self.enforce_size_cap(),
            "size_bytes": self.size_bytes(),
        }

    # ------------------------------------------------------------------ #
    # Compiled-trace store

    def trace_store(self) -> "TraceStore":
        """The compiled-trace store sharing this cache's directory.

        The store shares this cache's index and size cap: every
        stored trace is accounted (and triggers cap enforcement, with
        its own files protected), and trace entries are the *first*
        eviction victims when the cache outgrows ``REPRO_CACHE_MAX_MB``.
        """
        store = getattr(self, "_trace_store", None)
        if store is None:
            store = TraceStore(self.version_dir / "traces",
                               index=self._index,
                               on_store=self.enforce_size_cap)
            self._trace_store = store
        return store

    def describe(self) -> str:
        """Human-readable cache summary for the CLI."""
        entries = self.entries()
        if self.max_bytes is not None:
            cap = f"{self.max_bytes / (1024 * 1024):.1f} MiB ({ENV_CACHE_MAX_MB})"
        else:
            cap = "unbounded"
        index = self.ledger
        lines = [
            f"cache directory: {self.root.resolve()}",
            f"key schema:      v{CACHE_SCHEMA_VERSION}",
            f"entries:         {len(entries)}",
            f"size:            {self.size_bytes() / 1024:.1f} KiB",
            f"size cap:        {cap}",
            f"size evictions:  {self.evictions_size} (this process)",
            f"index:           {index.total_bytes() / 1024:.1f} KiB tracked in "
            f"{index.entry_count()} entry row(s), "
            f"{index.claim_count()} claim row(s)",
        ]
        stale = self.stale_version_dirs()
        if stale:
            names = ", ".join(p.name for p in stale)
            lines.append(f"stale versions:  {names} (run `repro cache clear`)")
        tmp = self.tmp_files()
        if tmp:
            lines.append(f"temp files:      {len(tmp)} in-flight or abandoned")
        traces = self.trace_store().entries()
        if traces:
            lines.append(f"compiled traces: {len(traces)}")
        return "\n".join(lines)


def trace_store_key(workload_fingerprint: str) -> str:
    """Content hash keying one compiled trace in the :class:`TraceStore`.

    Composes the workload fingerprint (which already covers the
    generator version, parameters, seed, and length — see
    :func:`repro.workloads.emulator.workload_fingerprint`) with the cache
    key schema and the columnar trace schema, so a change to either the
    on-disk layout or the key derivation retires every stored trace.
    """
    from repro.isa.compiled import TRACE_SCHEMA_VERSION

    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "trace",
        "trace_schema": TRACE_SCHEMA_VERSION,
        "workload": workload_fingerprint,
    }
    return content_key(payload)


class TraceStore:
    """Persistent store of compiled (columnar) traces.

    One entry per workload fingerprint: ``traces/<key>.npy`` (the
    structured array, loaded memory-mapped) plus ``traces/<key>.json``
    (identifying metadata).  Lives inside the result cache's version
    directory — ``REPRO_CACHE=0`` disables both together, and
    ``REPRO_CACHE_DIR`` relocates both together — and when constructed
    through :meth:`ResultCache.trace_store` its entries count against
    ``REPRO_CACHE_MAX_MB`` through the shared index.  Trace
    entries are the *first* eviction victims: they are large, and a
    vanished trace costs one deterministic regeneration, not a lost
    result.  A standalone ``TraceStore(directory)`` has no index and
    stays unaccounted.

    Writes go through per-pid temp files and ``os.replace``; the array
    is renamed into place before the metadata, and readers require both,
    so a torn write is indistinguishable from a miss and the stray
    ``.npy`` is evicted on the next load.  Any damaged entry
    (:class:`repro.isa.compiled.TraceReadError`) is deleted — both files
    — and reported as a miss, costing one regeneration, not a failure.
    """

    def __init__(self, directory: os.PathLike, index: Optional[CacheIndex] = None,
                 on_store=None):
        self.dir = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: shared index (set by :meth:`ResultCache.trace_store`)
        self._index = index
        #: size-cap hook invoked after each store with the new entry's
        #: files as ``protect``
        self._on_store = on_store

    def npy_path(self, key: str) -> Path:
        return self.dir / f"{key}.npy"

    def _meta_path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def load(self, key: str):
        """The stored compiled trace (memory-mapped), or ``None``."""
        from repro.isa.compiled import read_compiled, TraceReadError

        npy = self.npy_path(key)
        try:
            compiled = read_compiled(npy, self._meta_path(key), mmap=True)
        except TraceReadError:
            self._evict(key)
            self.misses += 1
            return None
        self.hits += 1
        return compiled

    def _evict(self, key: str) -> None:
        """Remove whatever remains of a damaged or torn entry."""
        evicted = False
        for path in (self.npy_path(key), self._meta_path(key)):
            try:
                path.unlink()
                evicted = True
            except OSError:
                pass
        if evicted:
            self.evictions += 1
            if self._index is not None:
                self._index.record_unlink("trace", key)

    def store(self, key: str, compiled) -> Optional[Path]:
        """Persist ``compiled`` under ``key``; returns the ``.npy`` path,
        or ``None`` when the filesystem refuses (read-only, full) and
        operation degrades to storeless."""
        from repro.isa.compiled import write_compiled

        npy = self.npy_path(key)
        meta = self._meta_path(key)
        pid = os.getpid()
        tmp_npy = npy.with_name(f"{npy.name}.{pid}.tmp")
        tmp_meta = meta.with_name(f"{meta.name}.{pid}.tmp")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            write_compiled(compiled, tmp_npy, tmp_meta)
            os.replace(tmp_npy, npy)
            os.replace(tmp_meta, meta)
        except OSError:
            for tmp in (tmp_npy, tmp_meta):
                try:
                    tmp.unlink()
                except OSError:
                    pass
            return None
        self.stores += 1
        if self._index is not None:
            nbytes = 0
            for part in (npy, meta):
                try:
                    nbytes += part.stat().st_size
                except OSError:
                    pass
            self._index.record_store("trace", key, nbytes)
        if self._on_store is not None:
            self._on_store(protect=(npy, meta))
        return npy

    def entries(self) -> List[Path]:
        """All stored ``.npy`` entries, sorted."""
        if not self.dir.is_dir():
            return []
        return sorted(self.dir.glob("*.npy"))

    def size_bytes(self) -> int:
        total = 0
        for path in list(self.entries()) + sorted(self.dir.glob("*.json")):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total
