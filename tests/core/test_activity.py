"""Per-module, per-die activity accounting, as the timing core fills it."""

from repro.core.activity import ActivityCounters, ModuleActivity, NUM_DIES
from tests.tiny_traces import (
    HEAP_ADDR,
    WIDE,
    alu,
    base_config,
    branch,
    load,
    nops,
    oracle_config,
    run,
    store,
)

#: A little of everything: ALU ops of both widths, a load, a store and a
#: conditional branch.
MIXED = [alu(0x100, 1), alu(0x104, WIDE), load(0x108, HEAP_ADDR, 1),
         store(0x10C, HEAP_ADDR + 8, WIDE), branch(0x110, taken=False),
         alu(0x114, 2, srcs=(2,))]


def modules(trace=MIXED, config=None):
    return run(trace, config).activity.modules()


class TestModuleActivity:
    def test_record_full_stack(self):
        # Without herding, every access enables the whole stack.
        for name, activity in modules(config=base_config()).items():
            assert activity.top_only == 0, name
            assert activity.per_die == [activity.per_die[0]] * NUM_DIES, name

    def test_record_top_only(self):
        alu_activity = modules([alu(0x100, 1)], oracle_config())["alu"]
        assert alu_activity.top_only == 1
        assert alu_activity.per_die == [1, 0, 0, 0]

    def test_record_partial(self):
        # A split-array prediction touches dies 0-1 only.
        dir_predictor = modules([branch(0x100, taken=False)])["dir_predictor"]
        assert dir_predictor.per_die == [2, 2, 1, 1]
        assert dir_predictor.top_only == 2

    def test_record_count(self):
        trace = MIXED + nops(0x200, 5)
        recorded = modules(trace)
        assert recorded["rename"].total == len(trace)
        assert recorded["fetch_queue"].total == len(trace)

    def test_record_die_specific(self):
        # The scheduler counts each die it wakes; an empty scheduler wakes
        # the top die's bus stub alone.
        scheduler = modules([alu(0x100, 1, srcs=())])["scheduler"]
        assert scheduler.per_die == [1, 0, 0, 0]
        assert scheduler.top_only == 1

    def test_bounds(self):
        for config in (None, base_config(), oracle_config()):
            for name, activity in modules(config=config).items():
                assert len(activity.per_die) == NUM_DIES, name
                assert 0 <= activity.top_only <= activity.per_die[0], name
                assert all(0 <= count <= activity.total
                           for count in activity.per_die), name

    def test_herded_fraction(self):
        activity = ModuleActivity(total=2, top_only=1, per_die=[2, 1, 1, 1])
        assert activity.herded_fraction == 0.5
        assert ModuleActivity().herded_fraction == 0.0

    def test_invariants(self, th_run, base_run):
        results = [th_run, base_run] + [
            run(MIXED, config) for config in (None, base_config(), oracle_config())
        ]
        for result in results:
            for name, activity in result.activity.modules().items():
                assert activity.top_only <= activity.per_die[0] <= activity.total, name
                # Accesses fill the stack from the top die down.
                for a, b in zip(activity.per_die, activity.per_die[1:]):
                    assert a >= b, name


class TestActivityCounters:
    def test_module_created_on_demand(self):
        counters = ActivityCounters()
        assert counters.module("alu").total == 0
        assert "alu" in counters.modules()

    def test_clear(self):
        # Activity recorded before the warmup boundary is dropped.
        trace = MIXED + nops(0x200, 4)
        warmed = run(trace, warmup=len(MIXED)).activity.modules()
        assert warmed["rename"].total == 4
        assert "alu" not in warmed
