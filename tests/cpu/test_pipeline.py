"""Tests for the out-of-order scoreboard timing model."""

import pytest

from repro.cpu.config import (
    baseline_config,
    fast_config,
    full_3d_config,
    pipeline_config,
    thermal_herding_config,
)
from repro.cpu.pipeline import TimingSimulator, simulate
from repro.isa.compiled import compile_trace, trace_row
from repro.isa.opcodes import OpClass


def straightline_trace(n=200, pc0=0x40_0000):
    """Independent single-cycle ALU ops: the IPC ceiling case."""
    rows = [
        trace_row(pc=pc0 + 4 * i, op=OpClass.IALU, srcs=(),
                  dst=(i % 8), result=i % 100)
        for i in range(n)
    ]
    return compile_trace("straight", rows)


def dependent_chain_trace(n=200, pc0=0x40_0000):
    """Every op depends on the previous one: IPC must approach 1."""
    rows = []
    value = 0
    for i in range(n):
        rows.append(trace_row(
            pc=pc0 + 4 * i, op=OpClass.IALU, srcs=(1,), dst=1,
            result=(value := value + 1), src_values=(value - 1,),
        ))
    return compile_trace("chain", rows)


class TestStructuralBehaviour:
    def test_straightline_ipc_bounded_by_width(self):
        result = simulate(straightline_trace(), baseline_config())
        assert result.ipc <= baseline_config().commit_width

    def test_straightline_ipc_reasonably_high(self):
        result = simulate(straightline_trace(400), baseline_config())
        assert result.ipc > 1.5

    def test_dependent_chain_ipc_near_one(self):
        result = simulate(dependent_chain_trace(400), baseline_config())
        assert 0.5 < result.ipc <= 1.1

    def test_chain_slower_than_straightline(self):
        straight = simulate(straightline_trace(400), baseline_config())
        chain = simulate(dependent_chain_trace(400), baseline_config())
        assert chain.ipc < straight.ipc

    def test_fdiv_structural_hazard(self):
        """Back-to-back FDIVs serialize on the single unpipelined divider."""
        divs = [
            trace_row(pc=0x1000 + 4 * i, op=OpClass.FDIV,
                      srcs=(), dst=40, result=1)
            for i in range(10)
        ]
        fills = straightline_trace(10, pc0=0x2000).array.tolist()
        result = simulate(compile_trace("d", divs + fills), baseline_config())
        from repro.isa.opcodes import OP_LATENCY
        assert result.cycles >= 10 * OP_LATENCY[OpClass.FDIV]


class TestDeterminismAndMetrics:
    def test_deterministic(self, mpeg2_trace):
        a = simulate(mpeg2_trace, baseline_config())
        b = simulate(mpeg2_trace, baseline_config())
        assert a.cycles == b.cycles
        assert a.activity.total_accesses() == b.activity.total_accesses()

    def test_metrics_consistent(self, base_run):
        assert base_run.ipc == pytest.approx(base_run.instructions / base_run.cycles)
        assert base_run.ipns == pytest.approx(base_run.ipc * base_run.clock_ghz)
        assert base_run.time_ns == pytest.approx(base_run.cycles / base_run.clock_ghz)

    def test_summary_text(self, base_run):
        assert "IPC" in base_run.summary()

    def test_cache_stats_present(self, base_run):
        for name in ("l1i", "l1d", "l2", "itlb", "dtlb"):
            assert name in base_run.cache_stats

    def test_activity_modules_present(self, base_run):
        modules = base_run.activity.modules()
        for name in ("rename", "register_file", "alu", "l1_icache", "l1_dcache"):
            assert name in modules, name


class TestWarmup:
    def test_warmup_excluded_from_instruction_count(self, mpeg2_trace):
        result = simulate(mpeg2_trace, baseline_config(), warmup=2000)
        assert result.instructions == len(mpeg2_trace) - 2000

    def test_warmup_improves_miss_rates(self, mpeg2_trace):
        cold = simulate(mpeg2_trace, baseline_config(), warmup=0)
        warm = simulate(mpeg2_trace, baseline_config(), warmup=len(mpeg2_trace) // 2)
        assert warm.cache_stats["l1d"].miss_rate <= cold.cache_stats["l1d"].miss_rate

    def test_warmup_must_be_smaller_than_trace(self, mpeg2_trace):
        with pytest.raises(ValueError):
            simulate(mpeg2_trace, baseline_config(), warmup=len(mpeg2_trace))


class TestConfigurationOrdering:
    """Figure 8's qualitative relations between the five configurations."""

    def test_pipe_improves_ipc(self, mpeg2_trace):
        base = simulate(mpeg2_trace, baseline_config(), warmup=2000)
        pipe = simulate(mpeg2_trace, pipeline_config(), warmup=2000)
        assert pipe.ipc >= base.ipc

    def test_fast_reduces_ipc(self, mpeg2_trace, base_run):
        fast = simulate(mpeg2_trace, fast_config(), warmup=2000)
        assert fast.ipc <= base_run.ipc

    def test_fast_still_faster_wallclock(self, mpeg2_trace, base_run):
        fast = simulate(mpeg2_trace, fast_config(), warmup=2000)
        assert fast.ipns > base_run.ipns

    def test_th_ipc_close_to_base(self, base_run, th_run):
        """Width misprediction stalls cost at most a few percent IPC."""
        assert th_run.ipc >= 0.95 * base_run.ipc

    def test_3d_speedup_shape(self, mpeg2_trace, base_run, full_3d_run):
        speedup = full_3d_run.ipns / base_run.ipns
        assert 1.05 <= speedup <= 1.8


class TestThermalHerdingIntegration:
    def test_width_stats_only_with_th(self, base_run, th_run):
        assert base_run.width_stats is None
        assert th_run.width_stats is not None

    def test_width_accuracy_high(self, th_run):
        assert th_run.width_stats.accuracy > 0.85

    def test_herding_metrics_present(self, th_run):
        for key in ("pam_herded", "dcache_herded_loads",
                    "scheduler_dies_per_broadcast", "btb_herded"):
            assert key in th_run.herding, key

    def test_herding_reduces_datapath_activity(self, base_run, th_run):
        """The TH run confines a large share of RF accesses to the top die."""
        base_rf = base_run.activity.module("register_file")
        th_rf = th_run.activity.module("register_file")
        assert base_rf.herded_fraction == 0.0
        assert th_rf.herded_fraction > 0.2

    def test_stall_accounting_nonnegative(self, th_run):
        stalls = th_run.stalls
        assert stalls.total >= 0
        assert stalls.rf_group_stalls >= 0
        assert stalls.dcache_width_stalls >= 0

    def test_scheduler_broadcasts_mostly_top_die(self, th_run):
        assert th_run.herding["scheduler_dies_per_broadcast"] < 2.5
