"""PAM (3.5), the partial-value L1D (3.6), BTB memoization and the split
direction arrays (3.7), as the timing core computes them on tiny traces."""

from repro.core.activity import NUM_DIES
from repro.core.dcache_encoding import EncodingScheme
from repro.isa.values import to_unsigned, upper_bits
from tests.tiny_traces import (
    HEAP_ADDR,
    STACK_ADDR,
    WIDE,
    base_config,
    branch,
    jump,
    load,
    oracle_config,
    pre,
    run,
    store,
    th_config,
)

FAR = 0x7F00_0000_0000


class TestPAM:
    def test_first_broadcast_is_full(self):
        trace = [store(0x100, STACK_ADDR)]
        assert pre(trace).pam_herded() == [False]
        assert run(trace).activity.modules()["load_queue"].per_die == [1] * NUM_DIES

    def test_matching_uppers_herd(self):
        trace = [store(0x100, STACK_ADDR), load(0x104, STACK_ADDR + 8)]
        assert pre(trace).pam_herded()[1]
        assert run(trace).activity.modules()["store_queue"].top_only == 1

    def test_loads_do_not_update_memo(self):
        trace = [store(0x100, STACK_ADDR),
                 load(0x104, HEAP_ADDR),     # mismatch, no update
                 load(0x108, STACK_ADDR)]    # still matches the store
        assert pre(trace).pam_herded() == [False, False, True]

    def test_stores_update_memo(self):
        trace = [store(0x100, STACK_ADDR), store(0x104, HEAP_ADDR),
                 load(0x108, STACK_ADDR), load(0x10C, HEAP_ADDR + 16)]
        assert pre(trace).pam_herded() == [False, False, False, True]

    def test_herded_fraction(self):
        trace = [store(0x100, STACK_ADDR), load(0x104, STACK_ADDR + 8),
                 load(0x108, HEAP_ADDR)]
        assert abs(run(trace).herding["pam_herded"] - 1 / 3) < 1e-9

    def test_queue_modules_charged(self):
        # A store searches the load queue; a load searches the store queue.
        modules = run([store(0x100, STACK_ADDR),
                       load(0x104, STACK_ADDR)]).activity.modules()
        assert modules["load_queue"].total == 1
        assert modules["store_queue"].total == 1


def _trained_load(addr, value, scheme=EncodingScheme.TWO_BIT):
    """A load at a PC the dynamic predictor has just seen load a low
    value, so it is predicted low width, after a store of ``value``."""
    return run([load(0x100, HEAP_ADDR + 64, 5),
                store(0x104, addr, value),
                load(0x100, addr, value)],
               th_config(dcache_encoding=scheme))


class TestPartialValueCache:
    def test_store_of_narrow_value_herds(self):
        trace = [store(0x100, HEAP_ADDR, 42)]
        assert pre(trace).dc_columns("two_bit")[1] == [True]
        result = run(trace)
        assert result.activity.modules()["l1_dcache"].top_only == 1
        assert result.stalls.dcache_width_stalls == 0

    def test_store_of_wide_value_full(self):
        trace = [store(0x100, HEAP_ADDR, 0xDEAD_BEEF_0001_0002)]
        assert pre(trace).dc_columns("two_bit")[1] == [False]
        assert run(trace).activity.modules()["l1_dcache"].per_die == [1] * NUM_DIES

    def test_predicted_low_load_of_compressed_value(self):
        result = run([store(0x100, HEAP_ADDR, 42), load(0x104, HEAP_ADDR, 42)],
                     oracle_config())
        assert result.herding["dcache_herded_loads"] == 1.0
        assert result.stalls.dcache_width_stalls == 0

    def test_unsafe_load_stalls_one_cycle(self):
        result = _trained_load(HEAP_ADDR, 0xDEAD_BEEF_0001_0002)
        assert result.stalls.dcache_width_stalls == 1

    def test_full_prediction_never_stalls(self):
        # A fresh predictor entry predicts full width: the read enables
        # every die and never stalls.
        result = run([store(0x104, HEAP_ADDR, WIDE), load(0x100, HEAP_ADDR, WIDE)])
        assert result.stalls.dcache_width_stalls == 0
        assert result.activity.modules()["l1_dcache"].top_only == 0

    def test_negative_values_compress(self):
        value = to_unsigned(-100)
        trace = [store(0x100, HEAP_ADDR, value), load(0x104, HEAP_ADDR, value)]
        loads, stores = pre(trace).dc_columns("two_bit")
        assert stores[0] and loads[1]
        assert run(trace, oracle_config()).herding["dcache_herded_loads"] == 1.0

    def test_near_pointer_compresses_in_two_bit(self):
        pointer = (upper_bits(HEAP_ADDR) << 16) | 0x42
        trace = [store(0x100, HEAP_ADDR, pointer)]
        assert pre(trace).dc_columns("two_bit")[1] == [True]
        assert _trained_load(HEAP_ADDR, pointer).stalls.dcache_width_stalls == 0

    def test_near_pointer_misses_in_one_bit(self):
        """The ablation scheme only compresses all-zero uppers."""
        pointer = (upper_bits(HEAP_ADDR) << 16) | 0x42
        trace = [store(0x100, HEAP_ADDR, pointer)]
        assert pre(trace).dc_columns("one_bit")[1] == [False]
        result = _trained_load(HEAP_ADDR, pointer, EncodingScheme.ONE_BIT)
        assert result.stalls.dcache_width_stalls == 1

    def test_one_bit_negative_misses(self):
        value = to_unsigned(-100)
        trace = [store(0x100, HEAP_ADDR, value), load(0x104, HEAP_ADDR, value)]
        assert pre(trace).dc_columns("one_bit") == ([False, False], [False, False])
        result = run(trace, oracle_config(dcache_encoding=EncodingScheme.ONE_BIT))
        assert result.stalls.dcache_width_stalls == 1

    def test_fill_touches_all_dies(self):
        # A cold load misses: the herded read touches the top die and
        # the L2 fill writes all four.
        result = run([load(0x100, HEAP_ADDR, 1)], oracle_config(), prewarm=False)
        dcache = result.activity.modules()["l1_dcache"]
        assert dcache.per_die == [2, 1, 1, 1]
        assert dcache.top_only == 1

    def test_herded_fraction_metric(self):
        result = run([store(0x100, HEAP_ADDR, 1), load(0x104, HEAP_ADDR, 1),
                      load(0x108, HEAP_ADDR + 8, WIDE)], oracle_config())
        assert result.herding["dcache_herded_loads"] == 0.5


class TestBTBMemoization:
    def test_near_target_herds(self):
        result = run([jump(0x40_0000, 0x40_0100)] * 2)
        assert result.stalls.btb_memoization_stalls == 0
        assert result.herding["btb_herded"] == 1.0

    def test_far_target_stalls(self):
        trace = [jump(0x40_0000, FAR)] * 2  # the first allocates the entry
        result = run(trace)
        assert result.stalls.btb_memoization_stalls == 1
        assert result.herding["btb_herded"] == 0.0
        assert run(trace, base_config()).stalls.btb_memoization_stalls == 0

    def test_herded_fraction(self):
        near, far = jump(0x40_0000, 0x40_0100), jump(0x40_0004, FAR)
        assert run([near, far, near, far]).herding["btb_herded"] == 0.5


class TestDirectionSplit:
    BRANCHES = 3

    def _dir_predictor(self, config=None):
        trace = [branch(0x100 + 4 * i, taken=False) for i in range(self.BRANCHES)]
        return run(trace, config).activity.modules()["dir_predictor"]

    def test_prediction_touches_top_half(self):
        per_die = self._dir_predictor().per_die
        # Predictions read dies 0-1 only: one more touch up top per branch.
        assert per_die[0] - per_die[2] == self.BRANCHES
        assert per_die[0] == per_die[1]

    def test_update_touches_everything(self):
        assert self._dir_predictor().per_die[2:] == [self.BRANCHES] * 2
        # Without herding, both accesses touch the whole stack.
        assert self._dir_predictor(base_config()).per_die == [2 * self.BRANCHES] * 4

    def test_top_half_fraction(self):
        per_die = self._dir_predictor().per_die
        # top touches 4 of 6 total.
        assert abs((per_die[0] + per_die[1]) / sum(per_die) - 4 / 6) < 1e-9
