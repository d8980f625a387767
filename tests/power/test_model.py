"""Tests for the power model and its paper calibration."""

import pytest

from repro.core.activity import NUM_DIES
from repro.power.model import (
    BASELINE_CLOCK_FRACTION,
    BASELINE_CORE_WATTS,
    BASELINE_LEAKAGE_FRACTION,
    CLOCK_3D_POWER_FACTOR,
    PowerModel,
    StackKind,
    calibrate_activity_scale,
)


@pytest.fixture(scope="module")
def calibrated(base_run):
    scale = calibrate_activity_scale(base_run)
    return PowerModel(activity_scale=scale)


class TestCalibration:
    def test_reference_run_hits_45w(self, calibrated, base_run):
        breakdown = calibrated.evaluate(base_run, StackKind.PLANAR_2D)
        assert breakdown.total_watts == pytest.approx(BASELINE_CORE_WATTS, rel=1e-6)

    def test_clock_fraction(self, calibrated, base_run):
        breakdown = calibrated.evaluate(base_run, StackKind.PLANAR_2D)
        assert breakdown.clock_watts == pytest.approx(
            BASELINE_CLOCK_FRACTION * BASELINE_CORE_WATTS
        )

    def test_leakage_fraction(self, calibrated, base_run):
        breakdown = calibrated.evaluate(base_run, StackKind.PLANAR_2D)
        assert breakdown.leakage_watts == pytest.approx(
            BASELINE_LEAKAGE_FRACTION * BASELINE_CORE_WATTS
        )

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            PowerModel(activity_scale=0.0)


class TestEvaluation:
    def test_per_die_sums_to_module_watts(self, calibrated, full_3d_run):
        breakdown = calibrated.evaluate(full_3d_run, StackKind.STACKED_3D)
        for module in breakdown.modules.values():
            assert sum(module.per_die) == pytest.approx(module.watts)
            assert len(module.per_die) == NUM_DIES

    def test_planar_has_single_die(self, calibrated, base_run):
        breakdown = calibrated.evaluate(base_run, StackKind.PLANAR_2D)
        for module in breakdown.modules.values():
            assert len(module.per_die) == 1

    def test_dram_excluded(self, calibrated, base_run):
        breakdown = calibrated.evaluate(base_run, StackKind.PLANAR_2D)
        assert "dram" not in breakdown.modules

    def test_clock_power_scales_with_frequency(self, calibrated, base_run, full_3d_run):
        planar = calibrated.evaluate(base_run, StackKind.PLANAR_2D)
        stacked = calibrated.evaluate(full_3d_run, StackKind.STACKED_3D)
        expected = (
            planar.clock_watts
            * (full_3d_run.clock_ghz / base_run.clock_ghz)
            * CLOCK_3D_POWER_FACTOR
        )
        assert stacked.clock_watts == pytest.approx(expected)

    def test_leakage_unchanged_by_3d(self, calibrated, base_run, full_3d_run):
        """Paper assumption: 3D and herding do not reduce leakage."""
        planar = calibrated.evaluate(base_run, StackKind.PLANAR_2D)
        stacked = calibrated.evaluate(full_3d_run, StackKind.STACKED_3D)
        assert stacked.leakage_watts == planar.leakage_watts

    def test_format_contains_total(self, calibrated, base_run):
        text = calibrated.evaluate(base_run, StackKind.PLANAR_2D).format()
        assert "TOTAL" in text


class TestPaperShape:
    def test_3d_th_saves_20_to_35_percent(self, calibrated, base_run, full_3d_run):
        """Paper: 15-30% total power saving; mpeg2 sits near 29%."""
        planar = calibrated.evaluate(base_run, StackKind.PLANAR_2D)
        stacked = calibrated.evaluate(full_3d_run, StackKind.STACKED_3D)
        saving = 1.0 - stacked.total_watts / planar.total_watts
        assert 0.15 <= saving <= 0.40

    def test_herding_reduces_die0_less_than_lower_dies(self, calibrated, full_3d_run):
        """Herded activity concentrates power on the top die."""
        breakdown = calibrated.evaluate(full_3d_run, StackKind.STACKED_3D)
        rf = breakdown.modules["register_file"]
        assert rf.per_die[0] > rf.per_die[3]
