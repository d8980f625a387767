"""The report plan's pool discipline, and what a warm report derives.

A cold report resolves every section's simulations in one pool, then
forks one pool for all pool-side thermal work (interval transients and
the sensitivity sweep) before the parent factorizes a conductance or
step matrix, so no worker inherits the parent's LU factors.  The
``pool_start`` events carry the parent's factorization counts at the
moment each pool forked.

A warm report on the cache the cold one filled derives each constant
once: no frequency plan after the process's first, one simulation key
per (benchmark, configuration) and one power evaluation per (benchmark,
label) served by :meth:`ExperimentContext.power`.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.circuits import frequency
from repro.circuits.frequency import derive_frequencies
from repro.cli import FAST_SETTINGS
from repro.experiments import context as context_module
from repro.experiments.cache import ResultCache
from repro.experiments.context import ExperimentContext
from repro.experiments.report import generate_report
from repro.power.model import PowerModel
from repro.thermal.solver import FACTORIZATION_STATS
from repro.thermal.transient import STEP_FACTORIZATION_STATS


@pytest.fixture(scope="module")
def cold_report(tmp_path_factory):
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


@pytest.fixture(scope="module")
def warm_report(cold_report):
    """A warm report on the cold report's cache, with its default clock
    plan derivations, simulation keys and power evaluations counted."""
    cold, _, _ = cold_report
    derive_frequencies()  # the process's first derivation, if not yet done
    derivations, keys, evaluations = [], Counter(), Counter()
    inside_power = []
    build_block_models = frequency.build_block_models
    simulation_key = context_module.simulation_key
    power, evaluate = ExperimentContext.power, PowerModel.evaluate

    def counted_build(*args, **kwargs):
        derivations.append(args)
        return build_block_models(*args, **kwargs)

    def counted_key(benchmark, config, *args):
        keys[benchmark, config] += 1
        return simulation_key(benchmark, config, *args)

    def counted_power(self, benchmark, config_label):
        inside_power.append((benchmark, config_label))
        try:
            return power(self, benchmark, config_label)
        finally:
            inside_power.pop()

    def counted_evaluate(self, result, stack):
        if inside_power:
            evaluations[inside_power[-1]] += 1
        return evaluate(self, result, stack)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frequency, "build_block_models", counted_build)
        patch.setattr(context_module, "simulation_key", counted_key)
        patch.setattr(ExperimentContext, "power", counted_power)
        patch.setattr(PowerModel, "evaluate", counted_evaluate)
        context = ExperimentContext(FAST_SETTINGS, jobs=2,
                                    cache=ResultCache(cold.cache.root))
        report = generate_report(context)
    return context, report, derivations, keys, evaluations


def test_warm_report_simulates_nothing(warm_report):
    context, report, _, _, _ = warm_report
    assert context.stats.simulated == 0
    assert context.stats.thermal_solved == 0
    assert report.startswith("# Thermal Herding reproduction")


def test_warm_report_derives_no_frequency_plan(warm_report):
    _, _, derivations, _, _ = warm_report
    assert derivations == []


def test_warm_report_keys_each_simulation_once(warm_report):
    _, _, _, keys, _ = warm_report
    assert len(keys) >= 52
    assert set(keys.values()) == {1}


def test_warm_report_evaluates_power_once_per_pair(warm_report):
    _, _, _, _, evaluations = warm_report
    assert evaluations
    assert set(evaluations.values()) == {1}
