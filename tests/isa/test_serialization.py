"""Tests for the two stored forms of a trace.

``repro trace`` writes a ``.npy`` array plus its JSON sidecar; the
trace store keeps a trace as a checksummed cache entry holding its
pickle.  These cases read a trace back from the store whole, check the
files ``repro trace`` writes, and feed the store entries that are not,
or are no longer, a trace: each must be a miss that removes the entry.
"""

import json
import pickle
import zlib

import numpy as np
import pytest

from repro.experiments.cache import (
    ENTRY_HEADER,
    ENTRY_MAGIC,
    ResultCache,
    trace_store_key,
)
from repro.isa.compiled import write_compiled
from repro.workloads.suite import generate
from repro.workloads.validation import TraceStats

KEY = trace_store_key("adpcm-400")


@pytest.fixture(scope="module")
def small_trace():
    return generate("adpcm", length=400)


def _save(trace, tmp_path):
    path = tmp_path / "t.npy"
    write_compiled(trace, path)
    return path


def _stored(trace, tmp_path):
    """A cache holding ``trace`` under :data:`KEY`, and its entry file."""
    cache = ResultCache(tmp_path)
    cache.trace_store().store(KEY, trace)
    (entry,) = cache.entries("trace")
    return cache, entry


def _rejected(cache, entry) -> bool:
    """Whether loading the damaged ``entry`` misses and removes it."""
    return (cache.trace_store().load(KEY) is None and not entry.exists()
            and cache.ledger.rows() == {})


class TestRoundtrip:
    def test_roundtrip_identical(self, small_trace, tmp_path):
        cache, _ = _stored(small_trace, tmp_path)
        loaded = cache.trace_store().load(KEY)
        assert loaded.name == small_trace.name
        assert loaded.benchmark_class == small_trace.benchmark_class
        assert loaded.seed == small_trace.seed
        assert loaded.array.dtype == small_trace.array.dtype
        assert loaded.array.tobytes() == small_trace.array.tobytes()

    def test_stats_preserved(self, small_trace, tmp_path):
        cache, _ = _stored(small_trace, tmp_path)
        loaded = cache.trace_store().load(KEY)
        assert TraceStats.from_trace(loaded) == TraceStats.from_trace(small_trace)

    def test_file_is_npy(self, small_trace, tmp_path):
        """The array is a plain ``.npy`` any numpy reads; the sidecar is
        JSON naming the trace and its length, with the rows' CRC-32."""
        path = _save(small_trace, tmp_path)
        array = np.load(path)
        assert array.tobytes() == small_trace.array.tobytes()
        header = json.loads(path.with_suffix(".json").read_text())
        assert header["name"] == "adpcm"
        assert header["length"] == len(small_trace)
        assert header["crc32"] == zlib.crc32(array.tobytes())


class TestValidation:
    def test_rejects_non_trace_file(self, small_trace, tmp_path):
        """A well-formed entry whose payload is not a trace."""
        cache, entry = _stored(small_trace, tmp_path)
        cache._store("trace", KEY, np.arange(len(small_trace)))
        assert _rejected(cache, entry)

    def test_rejects_empty_file(self, small_trace, tmp_path):
        cache, entry = _stored(small_trace, tmp_path)
        entry.write_bytes(b"")
        assert _rejected(cache, entry)

    def test_rejects_wrong_version(self, small_trace, tmp_path):
        """An entry in another entry-format version (another magic)."""
        cache, entry = _stored(small_trace, tmp_path)
        blob = entry.read_bytes()
        entry.write_bytes(b"RPC1" + blob[4:])
        assert _rejected(cache, entry)

    def test_rejects_truncated_body(self, small_trace, tmp_path):
        """A header that matches a truncated pickle: the checks pass and
        unpickling fails."""
        cache, entry = _stored(small_trace, tmp_path)
        payload = entry.read_bytes()[ENTRY_HEADER.size:-10]
        with pytest.raises(Exception):
            pickle.loads(payload)
        entry.write_bytes(ENTRY_HEADER.pack(ENTRY_MAGIC, len(payload),
                                            zlib.crc32(payload)) + payload)
        assert _rejected(cache, entry)
