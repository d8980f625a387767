"""Microbenchmark of the result cache's SQLite index.

Times the cache paths a report run pays: store throughput with the
index recording a row per store (unbounded), warm load throughput (each
load updates its row's ``atime``), a full repair scan, and store
throughput under a tight ``REPRO_CACHE_MAX_MB`` cap where every store
runs index-driven eviction.  Asserts the index invariants while doing
so — the index total must equal recursive disk usage exactly after each
phase, and the watermark must hold after the capped phase — so the
benchmark doubles as an exactness gate.  Emits a ``BENCH_cache.json`` payload that CI
records next to ``BENCH_report.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_cache.py [--out BENCH_cache.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import tempfile
import time

from repro.experiments.cache import ResultCache

#: Stores per phase; payloads are incompressible so sizes are honest.
ENTRIES = 200
PAYLOAD_BYTES = 4096

#: The capped phase's high-water mark: holds ~1/4 of the stores, so the
#: eviction path runs on most of them.
CAP_MB = 256 / 1024


def _exact(cache: ResultCache) -> bool:
    return cache.ledger.total_bytes() == \
        cache.size_bytes() + cache.trace_store().size_bytes()


def run(out_path: str) -> dict:
    workdir = tempfile.mkdtemp(prefix="bench-cache-")
    keys = [hashlib.sha256(f"entry-{i}".encode()).hexdigest()
            for i in range(ENTRIES)]
    payloads = [os.urandom(PAYLOAD_BYTES) for _ in range(ENTRIES)]
    try:
        cache = ResultCache(os.path.join(workdir, "unbounded"))
        t0 = time.perf_counter()
        for key, blob in zip(keys, payloads):
            cache.store(key, blob)
        t_store = time.perf_counter() - t0
        assert _exact(cache), "index drifted from du after unbounded stores"

        t0 = time.perf_counter()
        for key in keys:
            assert cache.load(key, expected_type=bytes) is not None
        t_load = time.perf_counter() - t0

        assert _exact(cache), "load touches changed the index total"

        t0 = time.perf_counter()
        repaired = cache.repair_ledger()
        t_repair = time.perf_counter() - t0
        assert repaired == cache.size_bytes(), "repair scan disagrees with du"

        capped = ResultCache(os.path.join(workdir, "capped"), max_mb=CAP_MB)
        t0 = time.perf_counter()
        for key, blob in zip(keys, payloads):
            capped.store(key, blob)
        t_capped = time.perf_counter() - t0
        assert _exact(capped), "index drifted from du under eviction"
        assert capped.ledger.total_bytes() <= capped.max_bytes, \
            "watermark violated after the capped phase"

        payload = {
            "workload": {
                "entries": ENTRIES,
                "payload_bytes": PAYLOAD_BYTES,
                "cap_bytes": capped.max_bytes,
            },
            "stage_seconds": {
                "store": round(t_store, 3),
                "load": round(t_load, 3),
                "repair": round(t_repair, 4),
                "capped_store": round(t_capped, 3),
            },
            "stores_per_second": round(ENTRIES / t_store, 1),
            "loads_per_second": round(ENTRIES / t_load, 1),
            "capped_stores_per_second": round(ENTRIES / t_capped, 1),
            "index": {
                "entry_rows": cache.ledger.entry_count()
                + capped.ledger.entry_count(),
                "size_evictions": capped.evictions_size,
                "exact_after_every_phase": True,  # the asserts above
                "watermark_holds": True,
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(out_path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_cache.json",
                        help="output JSON path (default: %(default)s)")
    args = parser.parse_args()
    payload = run(args.out)
    stages = payload["stage_seconds"]
    print(f"store {payload['stores_per_second']}/s  "
          f"load {payload['loads_per_second']}/s  "
          f"capped store {payload['capped_stores_per_second']}/s "
          f"({payload['index']['size_evictions']} size evictions)")
    print(f"repair {stages['repair']}s  index exact after every phase")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
