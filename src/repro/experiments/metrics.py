"""Scrapeable metrics snapshot of the cache, its index, and run telemetry.

One JSON-serializable dictionary combining:

* **cache-side state** read from disk — exact size/entry counts from the
  :class:`repro.experiments.cache.CacheIndex` (result and trace entries
  broken out), the configured size cap, the index's entry and claim
  rows, and the in-flight temp-file count;
* **per-process cache counters** — hit/miss/store/eviction counts of the
  live :class:`~repro.experiments.cache.ResultCache` and its trace
  store;
* **solver state** — the process-wide steady and step factorization
  counts;
* **run telemetry** — the owning context's
  :meth:`~repro.experiments.context.ContextStats.as_dict` payload
  (per-stage wall-clock, claim/retry/fault counters), when a context is
  attached.

``python -m repro metrics`` prints the snapshot (or writes it with
``--out FILE``) for CI artifacts and external scrapers;
``repro report --stats``/``--log-json`` embed the same cache section so
one warm-vs-cold diff shows exactly where every result came from.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Optional

from repro.thermal.solver import FACTORIZATION_STATS
from repro.thermal.transient import STEP_FACTORIZATION_STATS

#: Bump when the snapshot layout changes incompatibly.
METRICS_SCHEMA_VERSION = 4


def cache_metrics(cache) -> dict:
    """The cache/index section of the snapshot (``cache`` may be None —
    the ``REPRO_CACHE=0`` configuration — which reports as disabled)."""
    from repro.experiments.cache import CACHE_SCHEMA_VERSION, ENV_CACHE_MAX_MB

    if cache is None:
        return {"enabled": False}
    index = cache.ledger
    by_kind = {kind: (rows, nbytes) for kind, rows, nbytes in index.read(
        "SELECT kind, COUNT(*), SUM(bytes) FROM entries GROUP BY kind")}
    result_entries, result_bytes = by_kind.get("result", (0, 0))
    trace_entries, trace_bytes = by_kind.get("trace", (0, 0))
    store = cache.trace_store()
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
        "index": {
            "entry_rows": result_entries + trace_entries,
            "claim_rows": index.claim_count(),
            "rebuilds": index.rebuilds,
        },
        "tmp_files": len(cache.tmp_files()),
        "counters": {
            "hits": cache.hits,
            "misses": cache.misses,
            "stores": cache.stores,
            "evictions": cache.evictions,
            "evictions_size": cache.evictions_size,
            "trace_hits": store.hits,
            "trace_misses": store.misses,
            "trace_stores": store.stores,
            "trace_evictions": store.evictions,
        },
    }


def metrics_snapshot(context=None, cache=None) -> dict:
    """The full snapshot.

    ``context`` attaches its cache and run telemetry; without one,
    ``cache`` is used as-is when given, else the environment-default
    cache (``None`` under ``REPRO_CACHE=0``) is inspected — that is what
    ``python -m repro metrics`` scrapes between runs.
    """
    if context is not None:
        cache = context.cache
    elif cache is None:
        from repro.experiments.cache import ResultCache

        cache = ResultCache.from_env()
    snapshot = {
        "schema": METRICS_SCHEMA_VERSION,
        "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
        "cache": cache_metrics(cache),
        "factorizations": FACTORIZATION_STATS.factorizations,
        "step_factorizations": STEP_FACTORIZATION_STATS.factorizations,
    }
    if context is not None:
        snapshot["run"] = context.stats.as_dict()
    return snapshot
