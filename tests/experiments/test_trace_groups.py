"""Simulation fan-out by trace: one pool task per chunk of a benchmark's
configs, so a worker maps and pre-decodes each trace once per chunk.

Grouping must change only how the work is cut: the results, their order
and ``ContextStats.simulated`` stay what per-(benchmark, config) tasks
produced, on clean runs and when a worker dies holding a whole group.
"""

from __future__ import annotations

import io
import pickle

from repro.cpu import predecode as predecode_module
from repro.experiments import faults
from repro.experiments.cache import ResultCache
from repro.experiments.context import (
    ExperimentContext,
    ExperimentSettings,
    _simulate_task,
)
from repro.experiments.executor import chunks

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm", "susan"),
    thermal_grid=32,
)

TWO_BY_THREE = [(benchmark, label) for benchmark in ("adpcm", "susan")
                for label in ("Base", "TH", "Pipe")]
ONE_BY_FOUR = [("adpcm", label) for label in ("Base", "TH", "Pipe", "Fast")]


def _pickled(result) -> bytes:
    """``result``'s pickle with memoization off.

    A result that crossed a process boundary no longer shares one string
    object between its config name and the matching CPI-stack key, which
    changes the memo references in a plain pickle but not one value.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(result)
    return buffer.getvalue()


def _serial(pairs):
    context = ExperimentContext(TINY, jobs=1, cache=None)
    return {pair: _pickled(context.run(*pair)) for pair in pairs}


class TestChunks:
    def test_near_equal_contiguous_and_never_empty(self):
        assert chunks(list(range(6)), 1) == [list(range(6))]
        assert chunks(list(range(6)), 4) == [[0, 1], [2, 3], [4], [5]]
        assert chunks([0, 1], 5) == [[0], [1]]


class TestOnePredecodePerGroup:
    def test_three_configs_build_one_predecoded_trace(self, tmp_path,
                                                      monkeypatch):
        context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
        trace_file = context._trace_file("adpcm")
        assert trace_file is not None
        built = []
        real = predecode_module.PreDecodedTrace

        def counting(compiled):
            built.append(compiled.name)
            return real(compiled)

        monkeypatch.setattr(predecode_module, "PreDecodedTrace", counting)
        configs = [context._config_for(label) for label in ("Base", "TH", "3D")]
        results = _simulate_task("adpcm", configs, TINY.trace_length,
                                 TINY.warmup, trace_file=trace_file)
        assert built == ["adpcm"]
        assert [result.config_name for result in results] == [
            config.name for config in configs
        ]


class TestGroupedDispatch:
    def test_two_benchmarks_run_one_task_each(self, tmp_path):
        context = ExperimentContext(TINY, jobs=2, cache=ResultCache(tmp_path))
        context.prefetch(TWO_BY_THREE)
        assert context.stats.tasks_run == 2
        assert context.stats.simulated == len(TWO_BY_THREE)
        expected = _serial(TWO_BY_THREE)
        for pair in TWO_BY_THREE:
            assert _pickled(context.run(*pair)) == expected[pair], pair

    def test_one_benchmark_is_split_across_the_workers(self, tmp_path):
        context = ExperimentContext(TINY, jobs=2, cache=ResultCache(tmp_path))
        context.prefetch(ONE_BY_FOUR)
        assert context.stats.tasks_run == 2
        assert context.stats.simulated == len(ONE_BY_FOUR)
        expected = _serial(ONE_BY_FOUR)
        for pair in ONE_BY_FOUR:
            assert _pickled(context.run(*pair)) == expected[pair], pair

    def test_killed_group_recovers_identical(self, tmp_path, monkeypatch):
        """A worker killed holding a whole group costs that group a
        retry, never a wrong or missing result."""
        token_dir = tmp_path / "fault-tokens"
        faults.arm_worker_kills(token_dir, 1)
        monkeypatch.setenv(faults.ENV_FAULT_DIR, str(token_dir))
        context = ExperimentContext(TINY, jobs=2, cache=None)
        context.retry_backoff_s = 0.01
        context.prefetch(TWO_BY_THREE)
        assert faults.pending_tokens(token_dir) == []
        assert context.stats.pool_restarts >= 1
        assert context.stats.simulated == len(TWO_BY_THREE)
        monkeypatch.delenv(faults.ENV_FAULT_DIR)
        expected = _serial(TWO_BY_THREE)
        for pair in TWO_BY_THREE:
            assert _pickled(context.run(*pair)) == expected[pair], pair
