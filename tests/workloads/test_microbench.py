"""Mechanism-isolation tests: each kernel triggers exactly its mechanism."""

import hashlib

import numpy as np
import pytest

from repro.cpu.config import baseline_config, thermal_herding_config
from repro.cpu.pipeline import simulate
from repro.experiments.mechanisms import run_mechanisms
from repro.isa.compiled import OPCLASS_LIST
from repro.workloads.microbench import KERNELS, all_kernels

#: sha256 over every kernel's compiled ``TRACE_DTYPE`` rows, in
#: ``KERNELS`` order.
KERNEL_ROWS_DIGEST = (
    "82fae2a3fda942cd7614aa263e24134239c26df8b3176602d756d302078d14a1"
)

#: sha256 of ``run_mechanisms().format()``: the mechanism table is not
#: part of the report, so nothing else pins it.
MECHANISMS_TABLE_DIGEST = (
    "f56afd1dcc2694e6d47d437cd7768ce8963916c05f7bcff9ed23c46df923b672"
)


@pytest.fixture(scope="module")
def runs():
    config = thermal_herding_config()
    return {name: simulate(build(), config) for name, build in KERNELS.items()}


class TestKernelStructure:
    def test_all_kernels_build(self):
        for trace in all_kernels():
            assert len(trace) > 50

    def test_kernels_simulate_under_baseline(self):
        for name, build in KERNELS.items():
            result = simulate(build(), baseline_config())
            assert result.instructions == len(build()), name

    def test_committed_paths_sequential(self):
        is_control = np.array([op.is_control for op in OPCLASS_LIST])
        for trace in all_kernels():
            rows = trace.array
            next_pc = np.where(is_control[rows["op"]] & rows["taken"],
                               rows["target"], rows["pc"] + np.uint64(4))
            assert np.array_equal(next_pc[:-1], rows["pc"][1:]), trace.name


class TestGoldenDigests:
    def test_kernel_rows(self):
        digest = hashlib.sha256()
        for build in KERNELS.values():
            digest.update(build().array.tobytes())
        assert digest.hexdigest() == KERNEL_ROWS_DIGEST

    def test_mechanisms_table(self):
        text = run_mechanisms().format()
        assert hashlib.sha256(text.encode()).hexdigest() \
            == MECHANISMS_TABLE_DIGEST


class TestNarrowAlu:
    def test_no_stalls(self, runs):
        assert runs["narrow_alu"].stalls.total == 0

    def test_alu_herded(self, runs):
        assert runs["narrow_alu"].activity.module("alu").herded_fraction > 0.9

    def test_accuracy_high(self, runs):
        assert runs["narrow_alu"].width_stats.accuracy > 0.9


class TestWidthFlip:
    def test_predictor_cannot_settle(self, runs):
        assert runs["width_flip"].width_stats.accuracy < 0.7

    def test_reexecutions_triggered(self, runs):
        assert runs["width_flip"].stalls.alu_reexecutions >= 10

    def test_worse_than_narrow(self, runs):
        assert (runs["width_flip"].activity.module("alu").herded_fraction
                < runs["narrow_alu"].activity.module("alu").herded_fraction)


class TestWideOperands:
    def test_rf_stall_happens_then_correction_holds(self, runs):
        """Section 3.1: one unsafe read stalls the group; the in-flight
        prediction correction prevents recurrences at that PC."""
        stalls = runs["wide_operands"].stalls
        assert stalls.rf_group_stalls >= 1
        assert stalls.rf_group_stalls <= 4


class TestPointerChase:
    def test_serialized_ipc(self, runs):
        """Dependent loads commit at most one per L1 latency."""
        result = runs["pointer_chase"]
        assert result.ipc < 1.0

    def test_loads_dominated(self, runs):
        result = runs["pointer_chase"]
        assert result.cache_stats["l1d"].accesses >= 60


class TestStackBurst:
    def test_pam_herds_stack_traffic(self, runs):
        assert runs["stack_burst"].herding["pam_herded"] > 0.9


class TestFarBranches:
    def test_btb_memoization_stalls(self, runs):
        assert runs["far_branches"].stalls.btb_memoization_stalls >= 20

    def test_near_kernels_have_none(self, runs):
        assert runs["narrow_alu"].stalls.btb_memoization_stalls == 0


class TestWideLoads:
    def test_dcache_width_stalls(self, runs):
        """The first wide loads after narrow training pay the stall; the
        corrected predictor then stops gating that PC."""
        assert runs["wide_loads"].stalls.dcache_width_stalls >= 1

    def test_dcache_herding_drops_in_wide_phase(self, runs):
        assert runs["wide_loads"].herding["dcache_herded_loads"] < 0.9
