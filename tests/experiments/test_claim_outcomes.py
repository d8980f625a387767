"""Every outcome of a claim wait, for both claim-coordinated result kinds.

Simulations (reached through ``run`` and through ``prefetch``) and
steady thermal solves (``solve_thermal_groups``) share one resolve loop,
so each outcome of waiting on a peer's claim — adopt, stale takeover,
released takeover, expired wait, and a compute that raises mid-steal —
must behave the same for either kind.  A pooled thermal dispatch that
is abandoned before collection must release its own claims too.
"""

from __future__ import annotations

import multiprocessing
import pickle
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.experiments.cache import ResultCache, thermal_key
from repro.experiments.context import (
    ExperimentContext,
    ExperimentSettings,
    THERMAL_PARALLEL_MIN_GROUPS,
)
from repro.experiments.plan import PoolWork, Requirements, run_plan
from repro.floorplan.stacked import stacked_floorplan
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import stacked_3d_stack

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm",),
    thermal_grid=16,
)

#: Bound on waiting for killed workers to be recorded as exited.
REAP_BUDGET_S = 5.0


def _solver() -> ThermalSolver:
    return ThermalSolver(stacked_3d_stack(0.25), stacked_floorplan(),
                         nx=16, ny=16)


def _grids(solver):
    ny, nx = solver.chip_grid_shape()
    rng = np.random.default_rng(7)
    return [rng.random((ny, nx)) for _ in range(solver.floorplan.dies)]


class _Simulation:
    """``adpcm`` under ``Base``, resolved by ``run`` or by ``prefetch``."""

    #: the context method a compute failure is injected into
    compute_step = "_execute"

    def __init__(self, via: str):
        self.via = via

    def key(self, context):
        return context._cache_key("adpcm", context._config_for("Base"))

    def resolve(self, context):
        if self.via == "prefetch":
            context.prefetch([("adpcm", "Base")])
        return context.run("adpcm", "Base")

    def computed(self, context) -> int:
        return context.stats.simulated


class _Thermal:
    """One steady solve of a fixed power map on a small 3D stack."""

    compute_step = "_solve_units"

    def __init__(self):
        self.solver = _solver()
        self.grids = _grids(self.solver)

    def key(self, context):
        return thermal_key(self.solver, self.grids)

    def resolve(self, context):
        return context.solve_thermal_groups([(self.solver, [self.grids])])[0][0]

    def computed(self, context) -> int:
        return context.stats.thermal_solved


@pytest.fixture(params=["run", "prefetch", "thermal"])
def kind(request):
    if request.param == "thermal":
        return _Thermal()
    return _Simulation(request.param)


def _context(tmp_path, **knobs) -> ExperimentContext:
    context = ExperimentContext(TINY, jobs=1, cache=ResultCache(tmp_path))
    context.claim_poll_s = 0.01
    for name, value in knobs.items():
        setattr(context, name, value)
    return context


def _reference(kind):
    return kind.resolve(ExperimentContext(TINY, jobs=1, cache=None))


def _dead_pid() -> int:
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def _plant_claim(cache: ResultCache, key: str, pid: int) -> None:
    cache.ledger.connection().execute(
        "INSERT OR REPLACE INTO claims VALUES (?, ?, ?)", (key, pid, time.time()))


def _takeovers(context):
    return [e["reason"] for e in context.stats.events
            if e["event"] == "claim_takeover"]


def _steal_events(context):
    return [e for e in context.stats.events if e["event"] == "claim_steal"]


def _same(a, b) -> bool:
    return pickle.dumps(a) == pickle.dumps(b)


def test_peer_result_is_adopted(tmp_path, kind):
    produced = _reference(kind)
    context = _context(tmp_path)
    key = kind.key(context)
    peer = ResultCache(tmp_path)
    assert peer.try_claim(key)

    def peer_finishes():
        time.sleep(0.3)
        peer.store(key, produced)
        peer.release_claim(key)

    thread = threading.Thread(target=peer_finishes)
    thread.start()
    try:
        result = kind.resolve(context)
    finally:
        thread.join()
    assert kind.computed(context) == 0
    assert context.stats.claim_waits == 1
    assert context.stats.claim_dedup == 1
    assert context.stats.claim_takeovers == 0
    assert _same(result, produced)


def test_peer_finishing_between_the_checks_is_adopted(tmp_path, kind,
                                                      monkeypatch):
    """A peer that stores and releases while this process polls its key
    is adopted, never mistaken for one that released without storing."""
    produced = _reference(kind)
    context = _context(tmp_path)
    key = kind.key(context)
    peer = ResultCache(tmp_path)
    assert peer.try_claim(key)
    read_holder = context.cache.claim_holder

    def peer_finishes_after_read(polled):
        holder = read_holder(polled)
        if polled == key and holder is not None:
            peer.store(key, produced)
            peer.release_claim(key)
        return holder

    monkeypatch.setattr(context.cache, "claim_holder", peer_finishes_after_read)
    result = kind.resolve(context)
    assert kind.computed(context) == 0
    assert context.stats.claim_dedup == 1
    assert context.stats.claim_takeovers == 0
    assert _same(result, produced)


def test_dead_holder_is_taken_over(tmp_path, kind):
    context = _context(tmp_path)
    key = kind.key(context)
    _plant_claim(context.cache, key, _dead_pid())
    result = kind.resolve(context)
    assert kind.computed(context) == 1
    assert _takeovers(context) == ["stale"]
    assert context.stats.claim_steals == 1
    assert [e["tasks"] for e in _steal_events(context)] == [1]
    assert context.cache.claims() == []
    assert _same(result, _reference(kind))


def test_released_claim_is_stolen(tmp_path, kind, monkeypatch):
    """The holder released without storing: claim it and compute."""
    context = _context(tmp_path, claim_wait_s=5.0)
    key = kind.key(context)
    cache = context.cache
    original = cache.try_claim
    refused = []

    def refuse_once(claimed):
        if claimed == key and not refused:
            refused.append(claimed)
            return False  # lost the race; the holder then vanishes
        return original(claimed)

    monkeypatch.setattr(cache, "try_claim", refuse_once)
    result = kind.resolve(context)
    assert refused
    assert kind.computed(context) == 1
    assert _takeovers(context) == ["released"]
    assert context.stats.claim_steals == 1
    assert cache.claims() == []
    assert _same(result, _reference(kind))


def test_expired_wait_computes_and_keeps_the_peers_claim(tmp_path, kind):
    context = _context(tmp_path, claim_wait_s=0.2, claim_stale_s=10_000.0)
    key = kind.key(context)
    _plant_claim(context.cache, key, pid=1)  # init: alive, not ours
    start = time.monotonic()
    result = kind.resolve(context)
    assert time.monotonic() - start >= 0.2
    assert kind.computed(context) == 1
    assert _takeovers(context) == ["wait_expired"]
    assert context.stats.claim_steals == 0
    assert context.cache.claim_holder(key)["pid"] == 1
    assert _same(result, _reference(kind))


def test_compute_raising_mid_steal_releases_the_claim(tmp_path, kind,
                                                      monkeypatch):
    context = _context(tmp_path)
    key = kind.key(context)
    _plant_claim(context.cache, key, _dead_pid())

    def boom(*args, **kwargs):
        raise RuntimeError("compute failed")

    monkeypatch.setattr(context, kind.compute_step, boom)
    with pytest.raises(RuntimeError, match="compute failed"):
        kind.resolve(context)
    assert _takeovers(context) == ["stale"]
    assert context.cache.claims() == []


def _pooled_geometries():
    """Enough distinct small 3D geometries for a pooled steady dispatch,
    one power map each."""
    groups = []
    for index in range(THERMAL_PARALLEL_MIN_GROUPS):
        solver = ThermalSolver(stacked_3d_stack(0.25 + 0.05 * index),
                               stacked_floorplan(), nx=16, ny=16)
        groups.append((solver, [_grids(solver)]))
    return groups


def _wait_for_no_worker(before) -> None:
    deadline = time.monotonic() + REAP_BUDGET_S
    while set(multiprocessing.active_children()) - before:
        assert time.monotonic() < deadline, "a worker outlived the dispatch"
        time.sleep(0.02)


class TestAbandonedDispatch:
    """A pooled thermal dispatch never collected holds claims on its keys
    while its workers run; abandoning it releases them and kills the
    workers."""

    def test_cancel_before_result(self, tmp_path):
        before = set(multiprocessing.active_children())
        context = ExperimentContext(TINY, jobs=2, cache=ResultCache(tmp_path))
        started = context.start_thermal(_pooled_geometries(), [])
        assert len(context.cache.claims()) == THERMAL_PARALLEL_MIN_GROUPS
        started.cancel()
        assert context.cache.claims() == []
        _wait_for_no_worker(before)

    def test_plan_with_a_raising_section(self, tmp_path):
        before = set(multiprocessing.active_children())
        context = ExperimentContext(TINY, jobs=2, cache=ResultCache(tmp_path))
        held = []

        def failing(context):
            held.extend(context.cache.claims())
            raise RuntimeError("section failed")

        with pytest.raises(RuntimeError, match="section failed"):
            run_plan(context, [
                Requirements(
                    render=lambda resolved: resolved.pool(),
                    pool=lambda context, traces: PoolWork(
                        groups=_pooled_geometries()),
                ),
                Requirements(render=lambda resolved: None, solve=failing),
            ])
        assert len(held) == THERMAL_PARALLEL_MIN_GROUPS
        assert context.cache.claims() == []
        _wait_for_no_worker(before)
