"""The report plan's pool discipline.

A cold report resolves every section's simulations in one pool, then
forks one pool for all pool-side thermal work (interval transients and
the sensitivity sweep) before the parent factorizes a conductance or
step matrix, so no worker inherits the parent's LU factors.  The
``pool_start`` events carry the parent's factorization counts at the
moment each pool forked.
"""

from __future__ import annotations

import pytest

from repro.cli import FAST_SETTINGS
from repro.experiments.cache import ResultCache
from repro.experiments.context import ExperimentContext
from repro.experiments.report import generate_report
from repro.thermal.solver import FACTORIZATION_STATS, clear_factorization_cache
from repro.thermal.transient import STEP_FACTORIZATION_STATS, clear_step_cache


@pytest.fixture(scope="module")
def cold_report(tmp_path_factory):
    clear_factorization_cache()
    clear_step_cache()
    before = (FACTORIZATION_STATS.factorizations,
              STEP_FACTORIZATION_STATS.factorizations)
    context = ExperimentContext(
        FAST_SETTINGS, jobs=2,
        cache=ResultCache(tmp_path_factory.mktemp("cache")))
    generate_report(context)
    starts = [event for event in context.stats.events
              if event["event"] == "pool_start"]
    return context, before, starts


def test_one_simulation_pool(cold_report):
    _, _, starts = cold_report
    assert [e["kind"] for e in starts].count("simulation") == 1


def test_pool_side_thermal_work_shares_one_pool(cold_report):
    context, _, starts = cold_report
    assert [e["kind"] for e in starts] == [
        "simulation", "thermal solve + transient step"]
    assert context.stats.transient_worker_groups == 2
    assert context.stats.thermal_worker_groups == 10
    assert all(e["workers"] <= context.jobs for e in starts)


def test_every_pool_forks_before_the_parent_factorizes(cold_report):
    _, before, starts = cold_report
    assert starts
    for event in starts:
        assert (event["factorizations"],
                event["step_factorizations"]) == before, event
    # The parent did factorize afterwards: its own steady solves.
    assert FACTORIZATION_STATS.factorizations > before[0]
