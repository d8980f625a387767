"""Unit tests of the end-to-end benchmark harness (statistics, spans,
verdicts, the host-speed sampler) and a check that tracing leaves
simulation results unchanged."""

from __future__ import annotations

import os
import pickle
import threading
import time

import pytest

import jobs
import layers
from spans import Tracer, ancestors, read_spans, self_times, span_key
from summary import BETTER, UNRESOLVED, WITHIN, WORSE, quartiles, verdict


def test_host_speed_scales_by_the_mean_probe(monkeypatch):
    assert jobs._cpu_of(threading.get_native_id()) in os.sched_getaffinity(0)
    nominal = jobs.PROBE_NOMINAL_S
    probes = iter([nominal, 3 * nominal])
    monkeypatch.setattr(jobs, "SAMPLE_PERIOD_S", 0.01)
    monkeypatch.setattr(jobs, "_probe", lambda: next(probes, 2 * nominal))
    speed = jobs.HostSpeed()
    speed.start()
    deadline = time.monotonic() + 10.0
    while len(speed._samples) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    scale = speed.stop()
    assert not speed.is_alive()
    n = len(speed._samples)
    assert n >= 3
    assert scale == pytest.approx(n / (4 + 2 * (n - 2)))

    # A job shorter than the period is scaled by one probe after it.
    monkeypatch.setattr(jobs, "SAMPLE_PERIOD_S", 60.0)
    speed = jobs.HostSpeed()
    speed.start()
    assert speed.stop() == pytest.approx(0.5)


def test_quartiles_match_statistics_exclusive_method():
    q = quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert q == {"median": 5.5, "q1": 2.75, "q3": 8.25, "n": 10}
    assert quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}
    with pytest.raises(ValueError):
        quartiles([])


def _span(pid, sid, parent, name, ts, dur):
    return {"pid": pid, "id": sid, "parent": parent, "name": name,
            "ts": ts, "dur": dur}


def test_self_time_subtracts_only_same_process_children():
    spans = [
        _span(1, 1, None, "root", 0.0, 10.0),
        _span(1, 2, 1, "dispatch", 1.0, 6.0),
        _span(1, 3, 2, "load", 1.5, 1.0),
        _span(1, 4, 1, "render", 8.0, 1.5),
        # A worker's task overlaps the dispatch but is not its child, and
        # shares an id with a parent-process span.
        _span(2, 2, None, "task", 2.0, 4.0),
        _span(2, 3, 2, "core", 2.5, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 6.0 - 1.5)
    assert selfs[(1, 2)] == pytest.approx(5.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)
    assert selfs[(2, 2)] == pytest.approx(1.0)
    assert selfs[(2, 3)] == pytest.approx(3.0)
    index = {span_key(s): s for s in spans}
    assert ancestors(spans[2], index) == ["dispatch", "root"]
    assert ancestors(spans[5], index) == ["task"]


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert verdict(base, [x * 0.8 for x in base], "lower", 0.1) == BETTER
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.1) == WORSE
    assert verdict(base, [x * 1.02 for x in base], "lower", 0.1) == WITHIN
    # "higher is better" flips the direction.
    assert verdict(base, [x * 1.2 for x in base], "higher", 0.1) == BETTER
    # Spread wider than the bound with no clear separation: unresolved.
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    assert verdict(base, noisy, "lower", 0.1) == UNRESOLVED
    # An absolute floor widens a small relative bound: +0.04 s on 0.4 s
    # is 10 %, past a 5 % bound but within a 0.05 s floor.
    setup = [0.40, 0.41, 0.39, 0.40, 0.40]
    slower = [x + 0.04 for x in setup]
    assert verdict(setup, slower, "lower", 0.05) == WORSE
    assert verdict(setup, slower, "lower", 0.05, floor=0.05) == WITHIN


def test_tracing_is_neutral_and_reaches_pool_workers(tmp_path):
    """One benchmark x two configs, wrapped and unwrapped: identical
    pickles, worker spans present, and the wavefront nested in the core."""
    from repro.cpu import pipeline
    from repro.experiments.context import ExperimentContext, ExperimentSettings

    settings = ExperimentSettings(trace_length=3_000, warmup=1_000,
                                  benchmarks=("adpcm",))
    pairs = [("adpcm", "Base"), ("adpcm", "3D")]
    original = pipeline.TimingSimulator.run_compiled

    # Both sides use the pool: a result unpickled from a worker shares
    # fewer string objects than one built in-process, which changes the
    # pickle bytes though not the values.
    plain = ExperimentContext(settings, jobs=2, cache=None).run_many(pairs)
    tracer = Tracer(tmp_path)
    try:
        layers.install(tracer)
        with tracer.span(layers.ROOT):
            traced = ExperimentContext(settings, jobs=2,
                                       cache=None).run_many(pairs)
    finally:
        tracer.uninstall()
    assert pipeline.TimingSimulator.run_compiled is original

    for pair in pairs:
        assert pickle.dumps(traced[pair]) == pickle.dumps(plain[pair])
    spans = read_spans(tmp_path)
    index = {span_key(s): s for s in spans}
    cores = [s for s in spans if s["name"] == "cpu.core"]
    assert len(cores) == 2
    assert all(s["pid"] != tracer.pid for s in cores)  # ran in workers
    for span in spans:
        if span["name"] == "cpu.wavefront":
            assert ancestors(span, index)[0] == "cpu.core"
