"""The books of real power breakdowns balance.

A planar and a 3D breakdown of the same benchmark: per-die entries add
up to their module totals, nothing is negative, the dynamic/clock/leakage
split covers the whole budget, and the die shares of the stack cover the
whole chip.
"""

import pytest

from repro.core.activity import NUM_DIES
from repro.power.model import PowerModel, StackKind, calibrate_activity_scale


@pytest.fixture(scope="module")
def breakdowns(base_run, full_3d_run):
    model = PowerModel(activity_scale=calibrate_activity_scale(base_run))
    return (
        model.evaluate(base_run, StackKind.PLANAR_2D),
        model.evaluate(full_3d_run, StackKind.STACKED_3D),
    )


def _composition(breakdown):
    total = breakdown.total_watts
    return {
        "dynamic": breakdown.dynamic_watts / total,
        "clock": breakdown.clock_watts / total,
        "leakage": breakdown.leakage_watts / total,
    }


def _die_shares(breakdown):
    """Each die's fraction of the chip: its module entries plus an even
    split of the clock and leakage."""
    shared = (breakdown.clock_watts + breakdown.leakage_watts) / NUM_DIES
    return [
        (sum(module.per_die[die] for module in breakdown.modules.values()) + shared)
        / breakdown.total_watts
        for die in range(NUM_DIES)
    ]


class TestAudit:
    def test_real_breakdowns_balance(self, breakdowns):
        for breakdown, dies in zip(breakdowns, (1, NUM_DIES)):
            for name, module in breakdown.modules.items():
                assert len(module.per_die) == dies, name
                assert sum(module.per_die) == pytest.approx(
                    module.watts, rel=1e-9, abs=1e-9), name
                assert module.watts >= 0, name
                assert min(module.per_die) >= 0, name
            assert breakdown.clock_watts >= 0
            assert breakdown.leakage_watts >= 0


class TestSummaries:
    def test_composition_sums_to_one(self, breakdowns):
        for breakdown in breakdowns:
            assert sum(_composition(breakdown).values()) == pytest.approx(1.0)

    def test_baseline_composition_matches_paper(self, breakdowns):
        planar, _ = breakdowns
        comp = _composition(planar)
        assert comp["clock"] == pytest.approx(0.35, abs=0.01)
        assert comp["leakage"] == pytest.approx(0.20, abs=0.01)

    def test_die_shares_sum_to_one(self, breakdowns):
        _, stacked = breakdowns
        assert sum(_die_shares(stacked)) == pytest.approx(1.0)

    def test_herded_die0_share_largest_among_lower(self, breakdowns):
        _, stacked = breakdowns
        shares = _die_shares(stacked)
        # Herding plus the even shared split keeps die 0 at or above the rest.
        assert shares[0] >= max(shares[1:]) - 0.02
