"""Profile-based static and oracle width prediction (ablation
baselines), as the timing core runs them on tiny traces."""

from repro.cpu.config import WidthPredictorKind
from repro.isa.instruction import TraceInstruction
from repro.isa.opcodes import OpClass
from repro.workloads.suite import generate
from tests.tiny_traces import (
    WIDE,
    alu,
    gated,
    occurrences,
    oracle_config,
    pre,
    run,
    th_config,
)

STATIC = th_config(width_predictor_kind=WidthPredictorKind.STATIC)


def op(pc, result, src_values=(1,)):
    return alu(pc, result, srcs=(1,) * len(src_values), values=src_values)


def load(pc, value):
    return TraceInstruction(pc=pc, op=OpClass.LOAD, srcs=(1,), dst=2,
                            result=value, src_values=(1 << 40,),
                            mem_addr=0x1000, mem_value=value)


class TestActualWidthClass:
    def test_load_classifies_data_not_address(self):
        """Wide address operand, narrow data: loads classify the data."""
        assert pre([load(0, 5)]).actual_low == [True]

    def test_store_classifies_data(self):
        store = TraceInstruction(pc=0, op=OpClass.STORE, srcs=(1, 2),
                                 src_values=(1 << 40, 7),
                                 mem_addr=0x1000, mem_value=7)
        assert pre([store]).actual_low == [True]

    def test_alu_includes_operands(self):
        assert pre([op(0, 5, src_values=(1 << 40,)),
                    op(4, 5, src_values=(3,))]).actual_low == [False, True]


class TestProfile:
    def test_majority_wins(self):
        insts = [op(0x40, 1)] * 3 + [op(0x40, 1 << 40)] * 2
        assert pre(insts).width_profile()[0x40] is True

    def test_tie_resolves_full_width(self):
        insts = [op(0x40, 1), op(0x40, 1 << 40)]
        assert pre(insts).width_profile()[0x40] is False

    def test_non_datapath_excluded(self):
        branch = TraceInstruction(pc=0x80, op=OpClass.BRANCH, taken=False)
        assert 0x80 not in pre([branch]).width_profile()


class TestStaticPredictor:
    def test_uses_profile(self):
        trace = occurrences([True, True, False]) \
            + occurrences([False, False, True], pc=0x44)
        # Every occurrence follows its PC's majority, from the first one.
        assert gated(trace, STATIC) == [True] * 3 + [False] * 3

    def test_unprofiled_defaults_full(self):
        # Without a low-width majority a PC predicts full width.
        assert gated(occurrences([False]), STATIC) == [False]

    def test_correction_is_sticky(self):
        wide_read = alu(0x40, 1, srcs=(9,), values=(WIDE,))
        trace = occurrences([True] * 4) + [wide_read] + occurrences([True] * 3)
        # The register file's override latch pins the PC to full width
        # for the rest of the run, though its profile stays low.
        assert gated(trace, STATIC)[-3:] == [False] * 3

    def test_stats_accounting(self):
        wide_read = alu(0x40, 1, srcs=(9,), values=(WIDE,))
        trace = occurrences([True] * 4) + [wide_read, wide_read]
        result = run(trace, STATIC)
        stats = result.width_stats
        assert stats.predictions == 6
        assert stats.unsafe_mispredictions == 1  # before the override
        assert result.stalls.rf_group_stalls == 1


class TestOracle:
    def test_never_wrong(self):
        result = run(occurrences([True, False, True, True]), oracle_config())
        assert result.width_stats.accuracy == 1.0
        assert result.stalls.total == 0

    def test_prime_controls_prediction(self):
        # The oracle predicts each occurrence's own width class.
        outcomes = [True, False, False, True, False]
        assert gated(occurrences(outcomes), oracle_config()) == outcomes


class TestEndToEnd:
    def test_variants_in_simulator(self):
        from dataclasses import replace
        from repro.cpu.config import WidthPredictorKind, thermal_herding_config
        from repro.cpu.pipeline import simulate

        trace = generate("adpcm", length=4000)
        results = {}
        for kind in WidthPredictorKind:
            config = replace(thermal_herding_config(), width_predictor_kind=kind)
            results[kind] = simulate(trace, config, warmup=1000)

        oracle = results[WidthPredictorKind.ORACLE]
        assert oracle.width_stats.accuracy == 1.0
        assert oracle.stalls.total == 0
        dynamic = results[WidthPredictorKind.DYNAMIC]
        static = results[WidthPredictorKind.STATIC]
        # The oracle bounds both practical schemes.
        assert dynamic.width_stats.accuracy <= 1.0
        assert static.width_stats.accuracy <= 1.0
        # All variants produce the same committed work.
        assert dynamic.instructions == static.instructions == oracle.instructions
