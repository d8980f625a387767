"""The result record that :meth:`TimingSimulator.run_compiled` assembles.

The Thermal Herding statistics come straight from the wavefront plan's
counts and the timing loop's tallies.  These tests pin how they are put
together on tiny hand-made traces: the ``herding`` keys and their order,
the exact fractions, and the width-prediction record of each predictor
kind.  Each mechanism's own behaviour is tested on tiny traces under
``tests/core/`` (width prediction, register file, ALU and bypass,
scheduler, PAM, L1D encoding, BTB and direction arrays) and in
``tests/cpu/test_caches.py`` and ``tests/cpu/test_branch_predictor.py``
(the memory and front-end walks).
"""

from __future__ import annotations

import pytest

from repro.cpu.config import WidthPredictorKind
from repro.cpu.wavefront import build_plan
from tests.tiny_traces import (
    HEAP_ADDR,
    STACK_ADDR,
    WIDE,
    alu,
    base_config,
    branch,
    jump,
    load,
    pre,
    run,
    store,
    th_config,
)

FAR = 0x7F00_0000_0000

#: Stores and loads, near and far jumps, ALU ops of both widths.
TRACE = [
    store(0x100, STACK_ADDR, 7),
    load(0x104, STACK_ADDR + 8, 5),
    load(0x108, HEAP_ADDR, WIDE),
    jump(0x10C, 0x200),
    alu(0x200, 1),
    jump(0x204, FAR),
    alu(0x208, WIDE),
    branch(0x20C, taken=False),
    jump(0x10C, 0x200),
    jump(0x204, FAR),
    load(0x210, STACK_ADDR + 16, 3),
]

HERDING_KEYS = ["pam_herded", "dcache_herded_loads",
                "scheduler_dies_per_broadcast", "btb_herded"]


class TestHerdingRecord:
    def test_key_order(self):
        result = run(TRACE)
        keys = list(result.herding)
        assert keys[:4] == HERDING_KEYS
        assert keys[4:] == [f"herded::{name}"
                            for name, module in result.activity.modules().items()
                            if module.total]

    def test_without_herding_only_module_fractions(self):
        result = run(TRACE, base_config())
        assert all(key.startswith("herded::") for key in result.herding)
        assert result.width_stats is None

    def test_fractions_come_from_the_plan(self):
        config = th_config().resolved()
        plan = build_plan(pre(TRACE), config, 0, True)
        result = run(TRACE, config)
        herding = result.herding
        assert herding["pam_herded"] == plan.pam_herded_count / plan.pam_broadcasts
        assert herding["btb_herded"] == 1.0 - plan.memo_btb_far / plan.memo_btb_lookups
        scheduler = result.activity.modules()["scheduler"]
        assert herding["scheduler_dies_per_broadcast"] == \
            scheduler.total / plan.sched_broadcasts
        # The two repeated jumps hit the BTB: one near, one far.
        assert (plan.memo_btb_lookups, plan.memo_btb_far) == (2, 1)
        for name, module in result.activity.modules().items():
            if module.total:
                assert herding[f"herded::{name}"] == module.herded_fraction

    def test_empty_denominators_read_zero(self):
        herding = run([alu(0x100, 1, dst=None)]).herding
        for key in HERDING_KEYS:
            assert herding[key] == 0.0, key


class TestWidthRecord:
    @pytest.mark.parametrize("kind", list(WidthPredictorKind))
    def test_outcomes_partition_predictions(self, kind):
        stats = run(TRACE, th_config(width_predictor_kind=kind)).width_stats
        # Every integer-datapath op is predicted once.
        assert stats.predictions == sum(pre(TRACE).is_intdp)
        assert (stats.correct + stats.unsafe_mispredictions
                + stats.safe_mispredictions) == stats.predictions
        if kind is WidthPredictorKind.ORACLE:
            assert stats.correct == stats.predictions
