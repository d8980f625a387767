"""Content-addressed transient runs and leakage fixed points.

A transient run driven by a schedule with a ``cache_token`` and every
leakage fixed point are stored whole in the result cache, so a warm
interval sweep or leakage experiment steps, solves and factorizes
nothing — and returns exactly the bytes an uncached context computes.
"""

import pickle

import numpy as np
import pytest

from repro.experiments import faults
from repro.experiments.cache import ResultCache, transient_key
from repro.experiments.context import (
    ExperimentContext,
    ExperimentSettings,
    TransientRequest,
)
from repro.experiments.interval import (
    IntervalPowerSchedule,
    IntervalPowerTrace,
    run_interval,
)
from repro.experiments.leakage import run_leakage_feedback
from repro.power.model import StackKind
from repro.thermal.solver import FACTORIZATION_STATS
from repro.thermal.transient import STEP_FACTORIZATION_STATS, ConstantPower

SETTINGS = ExperimentSettings(
    trace_length=3_000,
    warmup=800,
    benchmarks=("mpeg2",),
    thermal_grid=16,
)
INTERVAL = 700
DT = 20e-3
DURATION = 0.2
SEEDED = ("Base", "TH", "3D")


def _interval(context):
    return run_interval(context, interval_insts=INTERVAL, dt_s=DT,
                        duration_s=DURATION)


def _trace(context):
    """A synthetic three-interval planar trace at the context's chip grid."""
    solver = context.solver(StackKind.PLANAR_2D)
    ny, nx = solver.chip_grid_shape()
    dies = solver.stack.die_count
    grids = [
        [np.full((ny, nx), 0.05 + 0.02 * j + 0.01 * d)
         for d in range(dies)]
        for j in range(3)
    ]
    return IntervalPowerTrace(
        benchmark="synthetic",
        config_label="Base",
        stack=StackKind.PLANAR_2D,
        interval_insts=INTERVAL,
        time_ns=np.array([1.0, 2.0, 3.0]),
        chip_watts=np.array([1.0, 1.0, 1.0]),
        die_grids=grids,
    )


def _request(trace, **schedule_args):
    return TransientRequest(
        stack=trace.stack,
        schedule=IntervalPowerSchedule(trace, **schedule_args),
        dt_s=DT,
        duration_s=DURATION,
    )


@pytest.fixture(scope="module")
def uncached():
    """Interval sweep and leakage experiment on a cacheless context."""
    context = ExperimentContext(SETTINGS, jobs=1, cache=None)
    return _interval(context), run_leakage_feedback(context)


class TestTransientKey:
    def test_key_covers_every_input(self):
        context = ExperimentContext(SETTINGS, jobs=1, cache=None)
        solver = context.solver(StackKind.PLANAR_2D)
        trace = _trace(context)

        def key(solver=solver, dt_s=DT, duration_s=DURATION, initial_k=None,
                trace=trace, **schedule_args):
            args = dict(pass_s=0.1, ceiling_k=330.0, throttle_factor=0.5,
                        hysteresis_k=2.0)
            args.update(schedule_args)
            return transient_key(solver, dt_s, duration_s, initial_k,
                                 IntervalPowerSchedule(trace, **args))

        base = key()
        assert key() == base  # deterministic across schedule instances
        bumped = trace.die_grids[1][0].copy()
        bumped[0, 0] += 1e-9
        hotter = IntervalPowerTrace(
            benchmark=trace.benchmark,
            config_label=trace.config_label,
            stack=trace.stack,
            interval_insts=trace.interval_insts,
            time_ns=trace.time_ns,
            chip_watts=trace.chip_watts,
            die_grids=[trace.die_grids[0], [bumped], trace.die_grids[2]],
        )
        variants = {
            "dt_s": key(dt_s=DT / 2),
            "duration_s": key(duration_s=2 * DURATION),
            "initial_k": key(initial_k=320.0),
            "geometry": key(solver=ExperimentContext(
                ExperimentSettings(thermal_grid=18), jobs=1, cache=None,
            ).solver(StackKind.PLANAR_2D)),
            "ceiling_k": key(ceiling_k=331.0),
            "throttle_factor": key(throttle_factor=0.6),
            "hysteresis_k": key(hysteresis_k=3.0),
            "pass_s": key(pass_s=0.2),
            "trace bytes": key(trace=hotter),
        }
        for name, variant in variants.items():
            assert variant != base, name
        assert len(set(variants.values())) == len(variants)

    def test_tokenless_schedules_have_no_key(self):
        context = ExperimentContext(SETTINGS, jobs=1, cache=None)
        solver = context.solver(StackKind.PLANAR_2D)
        grids = _trace(context).die_grids[0]
        assert transient_key(solver, DT, DURATION, None,
                             ConstantPower(grids)) is None


class TestTransientCache:
    def test_tokenless_schedules_run_and_are_never_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        grids = _trace(ExperimentContext(SETTINGS, jobs=1, cache=None)).die_grids[0]
        for _ in range(2):
            context = ExperimentContext(SETTINGS, jobs=1, cache=cache)
            (result, stats), = context.transient_many([TransientRequest(
                stack=StackKind.PLANAR_2D,
                schedule=ConstantPower(grids),
                dt_s=DT,
                duration_s=DURATION,
            )])
            assert context.stats.transient_runs == 1
            assert context.stats.transient_disk_hits == 0
            assert result.final_peak > result.peak_k[0]
            assert stats == {}
        assert cache.stores == 0
        assert cache.entries() == []

    def test_corrupted_entry_is_evicted_and_recomputed(self, tmp_path):
        cold = ExperimentContext(SETTINGS, jobs=1, cache=ResultCache(tmp_path))
        trace = _trace(cold)
        first = cold.transient_many([_request(trace, pass_s=0.1)])
        (entry,) = cold.cache.entries()
        faults.corrupt_entry(entry, "garbage")

        fresh = ResultCache(tmp_path)
        context = ExperimentContext(SETTINGS, jobs=1, cache=fresh)
        again = context.transient_many([_request(trace, pass_s=0.1)])
        assert fresh.evictions == 1
        assert context.stats.transient_runs == 1
        assert context.stats.transient_disk_hits == 0
        assert pickle.dumps(again[0]) == pickle.dumps(first[0])

        warm = ExperimentContext(SETTINGS, jobs=1, cache=ResultCache(tmp_path))
        warm.transient_many([_request(trace, pass_s=0.1)])
        assert warm.stats.transient_disk_hits == 1


class TestByteIdentity:
    def test_cold_and_warm_match_uncached(self, tmp_path, uncached):
        interval, leakage = uncached
        cold = ExperimentContext(SETTINGS, jobs=1, cache=ResultCache(tmp_path))
        assert pickle.dumps(_interval(cold)) == pickle.dumps(interval)
        assert pickle.dumps(run_leakage_feedback(cold)) == pickle.dumps(leakage)

        before = (FACTORIZATION_STATS.factorizations,
                  STEP_FACTORIZATION_STATS.factorizations)
        warm = ExperimentContext(SETTINGS, jobs=1, cache=ResultCache(tmp_path))
        assert pickle.dumps(_interval(warm)) == pickle.dumps(interval)
        assert pickle.dumps(run_leakage_feedback(warm)) == pickle.dumps(leakage)
        assert (FACTORIZATION_STATS.factorizations,
                STEP_FACTORIZATION_STATS.factorizations) == before
        assert warm.stats.transient_runs == 0
        assert warm.stats.transient_steps == 0
        assert warm.stats.thermal_solved == 0
        assert warm.stats.transient_disk_hits == 2 * len(warm.configs)
        assert warm.stats.leakage_disk_hits == 3

    def test_partial_hit_matches_uncached(self, tmp_path, uncached):
        interval, _ = uncached
        seed = ExperimentContext(SETTINGS, jobs=1, cache=ResultCache(tmp_path))
        run_interval(seed, interval_insts=INTERVAL, dt_s=DT,
                     duration_s=DURATION, configs=SEEDED)

        partial = ExperimentContext(SETTINGS, jobs=1,
                                    cache=ResultCache(tmp_path))
        result = _interval(partial)
        # Half the runs hit; the rest step with fewer RHS columns than
        # the uncached sweep's lock-stepped groups.
        assert partial.stats.transient_disk_hits == 2 * len(SEEDED)
        assert partial.stats.transient_runs == 2 * (
            len(partial.configs) - len(SEEDED)
        )
        assert pickle.dumps(result) == pickle.dumps(interval)
