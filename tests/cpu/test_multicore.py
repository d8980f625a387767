"""Tests for the dual-core chip model."""

import pytest

from repro.cpu.config import baseline_config
from repro.cpu.multicore import DualCoreRun, simulate_dual_core
from repro.cpu.pipeline import simulate
from repro.workloads.suite import generate


@pytest.fixture(scope="module")
def traces():
    return generate("adpcm", length=5000), generate("mcf", length=5000)


class TestDualCore:
    def test_both_cores_run(self, traces):
        run = simulate_dual_core(*traces, baseline_config(), warmup=1500)
        assert run.core0.benchmark == "adpcm"
        assert run.core1.benchmark == "mcf"
        assert run.core0.instructions == run.core1.instructions == 3500

    def test_throughput_is_sum(self, traces):
        run = simulate_dual_core(*traces, baseline_config(), warmup=1500)
        assert run.throughput_ipns == pytest.approx(run.core0.ipns + run.core1.ipns)

    def test_shared_l2_halves_capacity(self, traces):
        """Sharing must not help: per-core performance <= solo performance."""
        solo = simulate(traces[1], baseline_config(), warmup=1500)
        shared = simulate_dual_core(*traces, baseline_config(), warmup=1500)
        assert shared.core1.ipc <= solo.ipc + 1e-9

    def test_unshared_matches_solo(self, traces):
        solo = simulate(traces[0], baseline_config(), warmup=1500)
        run = simulate_dual_core(*traces, baseline_config(), warmup=1500,
                                 shared_l2=False)
        assert run.core0.ipc == pytest.approx(solo.ipc)

    def test_summary(self, traces):
        run = simulate_dual_core(*traces, baseline_config(), warmup=1500)
        text = run.summary()
        assert "core0" in text and "core1" in text and "throughput" in text


class TestMSHR:
    def test_fewer_mshrs_never_faster(self):
        """Bounding memory-level parallelism cannot increase performance."""
        from dataclasses import replace
        trace = generate("mcf", length=6000)
        many = simulate(trace, replace(baseline_config(), mshr_entries=16), warmup=2000)
        few = simulate(trace, replace(baseline_config(), mshr_entries=1), warmup=2000)
        assert few.ipc <= many.ipc + 1e-9

    def test_single_mshr_serializes_misses(self):
        from dataclasses import replace
        trace = generate("mcf", length=6000)
        few = simulate(trace, replace(baseline_config(), mshr_entries=1), warmup=2000)
        many = simulate(trace, replace(baseline_config(), mshr_entries=16), warmup=2000)
        # mcf is DRAM-bound: MLP = 1 must hurt it measurably.
        assert few.ipc < 0.95 * many.ipc
