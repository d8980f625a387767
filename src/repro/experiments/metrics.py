"""Scrapeable metrics snapshot of the cache and its index.

The cache-side state is read from disk: exact size/entry counts from
the :class:`repro.experiments.cache.CacheIndex` (result and trace
entries broken out), the configured size cap, the index's claim rows,
and the in-flight temp-file count.  :func:`cache_metrics` adds, for a
cache a run has used, that process's hit/miss/store/eviction counters,
which count result and compiled-trace entries alike, and its index
rebuilds.

``python -m repro metrics`` prints :func:`metrics_snapshot` (or writes
it with ``--out FILE``) for CI artifacts and external scrapers.  It runs
in a fresh process, whose counters are all zero, so it carries only the
on-disk state.  ``repro report --stats``/``--log-json`` embed the full
section, counters included, so one warm-vs-cold diff shows exactly
where every result came from.
"""

from __future__ import annotations

from datetime import datetime, timezone

#: Bump when the snapshot layout changes incompatibly.
METRICS_SCHEMA_VERSION = 6


def _disk_metrics(cache) -> dict:
    """The cache's on-disk state (``cache`` may be None — the
    ``REPRO_CACHE=0`` configuration — which reports as disabled)."""
    from repro.experiments.cache import CACHE_SCHEMA_VERSION, ENV_CACHE_MAX_MB

    if cache is None:
        return {"enabled": False}
    index = cache.ledger
    by_kind = {kind: (rows, nbytes) for kind, rows, nbytes in index.read(
        "SELECT kind, COUNT(*), SUM(bytes) FROM entries GROUP BY kind")}
    result_entries, result_bytes = by_kind.get("result", (0, 0))
    trace_entries, trace_bytes = by_kind.get("trace", (0, 0))
    return {
        "enabled": True,
        "dir": str(cache.root),
        "schema_version": CACHE_SCHEMA_VERSION,
        "size_bytes": result_bytes + trace_bytes,
        "entries": result_entries + trace_entries,
        "result_bytes": result_bytes,
        "result_entries": result_entries,
        "trace_bytes": trace_bytes,
        "trace_entries": trace_entries,
        "max_bytes": cache.max_bytes,
        "max_bytes_env": ENV_CACHE_MAX_MB,
        "index": {"claim_rows": index.claim_count()},
        "tmp_files": len(cache.tmp_files()),
    }


def cache_metrics(cache) -> dict:
    """The cache section of ``repro report --stats``: the on-disk state
    plus this process's cache counters and index rebuilds."""
    section = _disk_metrics(cache)
    if cache is not None:
        section["index"]["rebuilds"] = cache.ledger.rebuilds
        section["counters"] = {
            "hits": cache.hits,
            "misses": cache.misses,
            "stores": cache.stores,
            "evictions": cache.evictions,
            "evictions_size": cache.evictions_size,
        }
    return section


def metrics_snapshot() -> dict:
    """The snapshot of the environment-default cache (disabled under
    ``REPRO_CACHE=0``) that ``python -m repro metrics`` scrapes between
    runs: its on-disk state, without per-process counters."""
    from repro.experiments.cache import ResultCache

    return {
        "schema": METRICS_SCHEMA_VERSION,
        "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
        "cache": _disk_metrics(ResultCache.from_env()),
    }
