"""The interval co-simulation engine: grouping, caching, pool identity."""

import numpy as np
import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.context import (
    CONFIG_STACKS,
    ExperimentContext,
    ExperimentSettings,
    TransientRequest,
)
from repro.experiments.interval import (
    IntervalPowerSchedule,
    IntervalPowerTrace,
    extract_interval_trace,
    run_interval,
)
from repro.power.model import StackKind
from repro.thermal.transient import STEP_FACTORIZATION_STATS, step_matrix_key

SETTINGS = ExperimentSettings(
    trace_length=3_000,
    warmup=800,
    benchmarks=("mpeg2",),
    thermal_grid=16,
)
INTERVAL = 700
DT = 20e-3
DURATION = 0.4


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(SETTINGS, jobs=1, cache=None)


@pytest.fixture(scope="module")
def counted_sweep(context):
    """The sweep and the step factorizations it performed."""
    before = STEP_FACTORIZATION_STATS.factorizations
    result = run_interval(
        context,
        interval_insts=INTERVAL,
        dt_s=DT,
        duration_s=DURATION,
    )
    return result, STEP_FACTORIZATION_STATS.factorizations - before


@pytest.fixture(scope="module")
def sweep(counted_sweep):
    return counted_sweep[0]


class TestSweep:
    def test_one_step_factorization_per_key(self, context, counted_sweep):
        # 6 configs x 2 scenarios collapse onto exactly the distinct
        # (geometry, capacities, dt) step-matrix keys — one per stack.
        keys = {
            step_matrix_key(context.solver(stack), DT)
            for stack in (StackKind.PLANAR_2D, StackKind.STACKED_3D)
        }
        assert len(keys) == 2
        assert counted_sweep[1] == len(keys)
        assert context.stats.transient_groups == len(keys)
        assert context.stats.transient_runs == 2 * len(context.configs)

    def test_rows_cover_all_configs(self, context, sweep):
        assert [row.config for row in sweep.rows] == list(context.configs)
        for row in sweep.rows:
            assert row.throttled_peak_k <= row.free_peak_k
            assert 0.0 <= row.throttle_duty <= 1.0

    def test_throttling_caps_the_peak(self, sweep):
        for row in sweep.rows:
            if row.free_peak_k > row.ceiling_k:
                assert row.throttled_peak_k < row.free_peak_k
                assert row.throttle_duty > 0.0

    def test_format_is_deterministic(self, context, sweep):
        text = sweep.format()
        assert text == sweep.format()
        for label in context.configs:
            assert label in text


class TestExtraction:
    def test_disk_cache_round_trip(self, tmp_path):
        ctx = ExperimentContext(SETTINGS, jobs=1, cache=ResultCache(tmp_path))
        cold = extract_interval_trace(ctx, "mpeg2", "3D", INTERVAL)
        assert ctx.stats.interval_disk_hits == 0
        assert ctx.stats.intervals_extracted == len(cold)
        warm = extract_interval_trace(ctx, "mpeg2", "3D", INTERVAL)
        assert ctx.stats.interval_disk_hits == 1
        assert ctx.stats.intervals_extracted == len(cold)  # unchanged
        assert isinstance(warm, IntervalPowerTrace)
        assert np.array_equal(warm.time_ns, cold.time_ns)
        assert np.array_equal(warm.chip_watts, cold.chip_watts)
        for a, b in zip(warm.die_grids, cold.die_grids):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_trace_matches_aggregate_power(self, context):
        # Interval chip power weighted by interval runtime must average
        # to the aggregate steady-state chip power of the same run.
        trace = extract_interval_trace(context, "mpeg2", "Base", INTERVAL)
        mean_watts = float(
            (trace.chip_watts * trace.time_ns).sum() / trace.time_ns.sum()
        )
        assert mean_watts == pytest.approx(
            context.chip_power_watts("mpeg2", "Base"), rel=1e-9
        )


class TestPoolIdentity:
    def test_pool_matches_inline(self, context):
        traces = {
            label: extract_interval_trace(context, "mpeg2", label, INTERVAL)
            for label in ("Base", "3D")
        }

        def requests(dts):
            out = []
            for label, trace in traces.items():
                ceiling = (
                    context.solver(CONFIG_STACKS[label]).stack.ambient_k + 10.0
                )
                for dt_s in dts:
                    out.append(TransientRequest(
                        stack=CONFIG_STACKS[label],
                        schedule=IntervalPowerSchedule(
                            trace, pass_s=0.2, ceiling_k=ceiling
                        ),
                        dt_s=dt_s,
                        duration_s=DURATION,
                    ))
            return out

        # One step size is the report's shape: one group per stack.
        for dts in ((DT,), (DT, DT / 2)):
            inline = context.transient_many(requests(dts))

            pooled_ctx = ExperimentContext(SETTINGS, jobs=2, cache=None)
            pooled_ctx._solvers = context._solvers  # same geometry objects
            pooled = pooled_ctx.transient_many(requests(dts))
            assert pooled_ctx.stats.transient_worker_groups == 2 * len(dts)

            for (res_a, stats_a), (res_b, stats_b) in zip(inline, pooled):
                assert res_a.peak_k == res_b.peak_k
                assert stats_a == stats_b
                assert all(
                    np.array_equal(a, b)
                    for a, b in zip(
                        res_a.final_layer_temps, res_b.final_layer_temps
                    )
                )
