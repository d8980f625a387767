"""Tests for trace files: the ``.npy`` array plus its JSON sidecar.

``repro trace`` writes this pair and the trace store reads it; these
cases read it back whole (not memory-mapped) and feed the reader files
that are not, or are no longer, a trace.
"""

import json

import numpy as np
import pytest

from repro.isa.compiled import TraceReadError, read_compiled, write_compiled
from repro.workloads.suite import generate
from repro.workloads.validation import TraceStats


@pytest.fixture(scope="module")
def small_trace():
    return generate("adpcm", length=400)


def _save(trace, tmp_path):
    path = tmp_path / "t.npy"
    write_compiled(trace, path)
    return path


class TestRoundtrip:
    def test_roundtrip_identical(self, small_trace, tmp_path):
        loaded = read_compiled(_save(small_trace, tmp_path), mmap=False)
        assert loaded.name == small_trace.name
        assert loaded.benchmark_class == small_trace.benchmark_class
        assert loaded.seed == small_trace.seed
        assert not isinstance(loaded.array, np.memmap)
        assert loaded.array.tobytes() == small_trace.array.tobytes()

    def test_stats_preserved(self, small_trace, tmp_path):
        loaded = read_compiled(_save(small_trace, tmp_path))
        assert TraceStats.from_trace(loaded) == TraceStats.from_trace(small_trace)

    def test_file_is_npy(self, small_trace, tmp_path):
        """The array is a plain ``.npy`` any numpy reads; the sidecar is
        JSON naming the trace and its length."""
        path = _save(small_trace, tmp_path)
        assert np.load(path).tobytes() == small_trace.array.tobytes()
        header = json.loads(path.with_suffix(".json").read_text())
        assert header["name"] == "adpcm"
        assert header["length"] == len(small_trace)


class TestValidation:
    def test_rejects_non_trace_file(self, small_trace, tmp_path):
        """A valid ``.npy`` of another dtype, beside a valid sidecar."""
        path = _save(small_trace, tmp_path)
        np.save(path, np.arange(len(small_trace)))
        with pytest.raises(TraceReadError, match="dtype"):
            read_compiled(path)

    def test_rejects_empty_file(self, small_trace, tmp_path):
        path = _save(small_trace, tmp_path)
        path.write_bytes(b"")
        with pytest.raises(TraceReadError):
            read_compiled(path)

    def test_rejects_wrong_version(self, small_trace, tmp_path):
        path = _save(small_trace, tmp_path)
        meta = path.with_suffix(".json")
        meta.write_text(json.dumps({"format": "repro-trace", "version": 1}))
        with pytest.raises(TraceReadError, match="schema"):
            read_compiled(path)

    def test_rejects_truncated_body(self, small_trace, tmp_path):
        path = _save(small_trace, tmp_path)
        np.save(path, small_trace.array[:-10])
        with pytest.raises(TraceReadError):
            read_compiled(path)
