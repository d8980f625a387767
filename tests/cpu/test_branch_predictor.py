"""Tests for the hybrid direction predictor and the front-end walk."""

import pytest

from repro.cpu.branch_predictor import HybridPredictor, _CounterTable
from repro.cpu.config import baseline_config, thermal_herding_config
from repro.cpu.wavefront import build_plan, frontend_walk
from tests.tiny_traces import base_config, branch, call, jump, pre, ret, run


class TestCounterTable:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            _CounterTable(100)

    def test_initial_weakly_not_taken(self):
        table = _CounterTable(16)
        assert not table.predict(0)

    def test_saturation(self):
        table = _CounterTable(16)
        for _ in range(10):
            table.update(3, True)
        assert table.predict(3)
        table.update(3, False)
        assert table.predict(3)  # hysteresis


class TestHybridPredictor:
    def test_learns_always_taken(self):
        predictor = HybridPredictor()
        for _ in range(8):
            predictor.update(0x100, True)
        assert predictor.predict(0x100)

    def test_learns_always_not_taken(self):
        predictor = HybridPredictor()
        for _ in range(8):
            predictor.update(0x100, False)
        assert not predictor.predict(0x100)

    def test_learns_periodic_pattern(self):
        """A period-4 pattern (TTTN) is learnable via local history."""
        predictor = HybridPredictor()
        pattern = [True, True, True, False]
        # Train for several periods.
        for i in range(200):
            predictor.update(0x200, pattern[i % 4])
        correct = 0
        for i in range(200, 240):
            outcome = pattern[i % 4]
            if predictor.predict(0x200) == outcome:
                correct += 1
            predictor.update(0x200, outcome)
        assert correct / 40 > 0.9

    def test_biased_branch_tracks_bias(self):
        import random
        rng = random.Random(3)
        predictor = HybridPredictor()
        correct = 0
        total = 400
        for _ in range(total):
            outcome = rng.random() < 0.85
            if predictor.predict(0x300) == outcome:
                correct += 1
            predictor.update(0x300, outcome)
        assert correct / total > 0.75


    def test_step_predicts_then_trains(self):
        """``step`` returns what ``predict`` would, then leaves the same
        state as ``update``: two predictors fed one biased stream, one
        through each path, agree on every prediction."""
        import random
        rng = random.Random(5)
        fused, split = HybridPredictor(), HybridPredictor()
        for _ in range(2_000):
            pc = 0x1000 + 4 * rng.randrange(64)
            taken = rng.random() < 0.7
            expected = split.predict(pc)
            split.update(pc, taken)
            assert fused.step(pc, taken) == expected


class TestFrontEnd:
    """:func:`~repro.cpu.wavefront.frontend_walk` replays the direction
    predictor, BTB and return-address stack over a trace."""

    def walk(self, trace, config=None):
        return frontend_walk(pre(trace), config or baseline_config())

    def bubbles(self, trace, config):
        return build_plan(pre(trace), config.resolved(), 0, True).bubbles

    def test_conditional_trains_and_counts(self):
        trace = [branch(0x1000, True, 0x1100)] * 7
        assert run(trace).branch_stats.conditional_branches == 7
        assert not self.walk(trace).mispredicted[-1]

    def test_first_taken_branch_mispredicts(self):
        """Counters start weakly not-taken, so a first taken branch misses."""
        fe = self.walk([branch(0x1000, True, 0x1100)])
        assert fe.mispredicted[0] and fe.dir_mispred[0]

    def test_btb_learns_targets(self):
        fe = self.walk([jump(0x1000, 0x2000)] * 2)
        assert fe.btb_hit.tolist() == [False, True]

    def test_call_return_ras(self):
        trace = [call(0x1000, 0x8000), ret(0x8010, 0x1004)]
        fe = self.walk(trace)
        assert fe.ras_hit[1] and not fe.mispredicted[1]
        assert run(trace).branch_stats.ras_mispredicts == 0

    def test_return_without_call_mispredicts(self):
        trace = [ret(0x8010, 0x1234)]
        assert self.walk(trace).mispredicted[0]
        assert run(trace).branch_stats.ras_mispredicts == 1

    def test_nested_calls(self):
        fe = self.walk([call(0x1000, 0x8000), call(0x8004, 0x9000),
                        ret(0x9010, 0x8008), ret(0x8010, 0x1004)])
        assert fe.mispredicted.tolist() == [True, True, False, False]
        assert fe.ras_hit[2:].all()

    def test_memoized_btb_far_target_bubble(self):
        far = 0x7F00_0000_0000
        trace = [jump(0x1000, far)] * 2  # the first allocates the entry
        assert self.bubbles(trace, thermal_herding_config()) == [0, 1]
        assert self.bubbles(trace, baseline_config()) == [0, 0]

    def test_memoized_btb_near_target_free(self):
        trace = [jump(0x1000, 0x1400)] * 2
        assert self.bubbles(trace, thermal_herding_config()) == [0, 0]

    def test_split_arrays_active_with_th(self):
        trace = [branch(0x1000, False)]
        # One prediction on dies 0-1 plus one update on all four dies.
        herded = run(trace).activity.modules()["dir_predictor"]
        assert herded.per_die == [2, 2, 1, 1]
        flat = run(trace, base_config()).activity.modules()["dir_predictor"]
        assert flat.per_die == [2, 2, 2, 2]
