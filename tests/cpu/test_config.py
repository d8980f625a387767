"""Tests for the processor configurations."""

from dataclasses import replace

import pytest

from repro.core.dcache_encoding import EncodingScheme
from repro.cpu.config import (
    baseline_config,
    fast_config,
    full_3d_config,
    paper_configurations,
    pipeline_config,
    thermal_herding_config,
)
from repro.cpu.pipeline import TimingSimulator


class TestBaseline:
    def test_table1_parameters(self):
        cfg = baseline_config()
        assert cfg.clock_ghz == 2.66
        assert cfg.fetch_width == 4
        assert cfg.issue_width == 6
        assert cfg.rob_size == 96
        assert cfg.rs_size == 32
        assert cfg.lq_size == 32
        assert cfg.sq_size == 20
        assert cfg.l1d_size == 32 << 10
        assert cfg.l2_size == 4 << 20
        assert cfg.btb_entries == 2048
        assert cfg.ibtb_entries == 512
        assert not cfg.thermal_herding
        assert not cfg.pipeline_optimized

    def test_mispredict_penalty_at_least_14(self):
        """Table 1: minimum 14-cycle branch misprediction penalty."""
        assert baseline_config().branch_mispredict_min_cycles >= 14

    def test_dram_cycles_scale_with_clock(self):
        base = baseline_config()
        fast = fast_config()
        assert fast.dram_cycles > base.dram_cycles
        assert base.dram_cycles == round(base.dram_latency_ns * base.clock_ghz)


class TestVariants:
    def test_th_only_toggles_herding(self):
        cfg = thermal_herding_config()
        assert cfg.thermal_herding
        assert not cfg.pipeline_optimized
        assert cfg.clock_ghz == baseline_config().clock_ghz

    def test_pipe_reduces_latencies(self):
        cfg = pipeline_config().resolved()
        base = baseline_config().resolved()
        assert cfg.l2_latency < base.l2_latency
        assert cfg.front_depth < base.front_depth

    def test_resolved_is_idempotent_for_base(self):
        cfg = baseline_config()
        assert cfg.resolved() is cfg

    def test_fast_is_microarchitecturally_identical(self):
        base = baseline_config()
        fast = fast_config()
        assert fast.clock_ghz > base.clock_ghz
        assert fast.l2_latency == base.l2_latency
        assert not fast.thermal_herding

    def test_3d_combines_everything(self):
        cfg = full_3d_config()
        assert cfg.thermal_herding
        assert cfg.pipeline_optimized
        assert cfg.clock_ghz > 3.5

    def test_3d_clock_from_circuit_model(self):
        """The 3D clock derives from the critical loops, ~1.45x faster."""
        ratio = full_3d_config().clock_ghz / baseline_config().clock_ghz
        assert 1.40 <= ratio <= 1.55

    def test_default_encoding_is_two_bit(self):
        assert full_3d_config().dcache_encoding is EncodingScheme.TWO_BIT


class TestRegistry:
    def test_five_configurations(self):
        configs = paper_configurations()
        assert set(configs) == {"Base", "TH", "Pipe", "Fast", "3D"}

    def test_descriptions_present(self):
        for pc in paper_configurations().values():
            assert pc.description


@pytest.mark.parametrize("overrides, message", [
    ({"width_predictor_entries": 1000}, "power of two"),
    ({"width_predictor_entries": 0}, "power of two"),
    ({"width_counter_bits": 0}, "width_counter_bits"),
    ({"rs_size": 30}, "multiple of 4"),
    ({"rs_size": 0}, "multiple of 4"),
    ({"btb_assoc": 3}, "btb: 2048 entries not divisible"),
    ({"btb_entries": 0}, "btb: sizes must be positive"),
    ({"ibtb_assoc": 0}, "ibtb: sizes must be positive"),
    ({"ibtb_entries": 514}, "ibtb: 514 entries not divisible"),
    ({"issue_width": 0}, "issue_width must be >= 1"),
    ({"issue_width": -1}, "issue_width must be >= 1"),
])
def test_simulator_rejects_unbuildable_configs(overrides, message):
    """A configuration whose predictor table, scheduler or target
    buffers cannot be built fails at construction, before any run."""
    with pytest.raises(ValueError, match=message):
        TimingSimulator(replace(thermal_herding_config(), **overrides))
