"""Tests for workload characterization validation — and the suite itself."""

import dataclasses

import pytest

from repro.isa.builder import TraceBuilder
from repro.isa.opcodes import OpClass
from repro.workloads.parameters import BenchmarkClass
from repro.workloads.suite import BENCHMARKS, generate
from repro.workloads.validation import (
    CLASS_EXPECTATIONS,
    ClassExpectations,
    TraceStats,
    validate_suite,
    validate_trace,
)


class TestMechanics:
    def test_violation_reported(self):
        expectations = ClassExpectations(
            low_width_results=(0.99, 1.0),
            memory_fraction=(0.0, 1.0),
            branch_fraction=(0.0, 1.0),
            near_targets=(0.0, 1.0),
        )
        trace = TraceBuilder().alu(1, 1 << 40).build()
        violations = expectations.check(TraceStats.from_trace(trace))
        assert violations
        assert "low_width_results" in violations[0]

    def test_unknown_class_needs_explicit_expectations(self):
        trace = TraceBuilder().alu(1, 1).build()  # class "microbench"
        with pytest.raises(ValueError):
            validate_trace(trace)

    def test_explicit_expectations_accepted(self):
        trace = TraceBuilder().alu(1, 1).build()
        wide_open = ClassExpectations(
            low_width_results=(0.0, 1.0),
            memory_fraction=(0.0, 1.0),
            branch_fraction=(0.0, 1.0),
            near_targets=(0.0, 1.0),
        )
        assert validate_trace(trace, wide_open) == []

    def test_all_classes_have_expectations(self):
        assert set(CLASS_EXPECTATIONS) == set(BenchmarkClass)


class TestSuiteCharacterization:
    """The real check: every shipped benchmark fits its class's bands."""

    @pytest.fixture(scope="class")
    def suite(self):
        return [generate(name, length=6000) for name in BENCHMARKS]

    def test_whole_suite_validates(self, suite):
        report = validate_suite(suite)
        assert report == {}, f"workload characterization drift: {report}"

    def test_media_is_narrowest_class(self, suite):
        by_class = {}
        for trace in suite:
            by_class.setdefault(trace.benchmark_class, []).append(
                TraceStats.from_trace(trace).low_width_result_fraction
            )
        media = sum(by_class["MediaBench"]) / 4
        pointer = sum(by_class["Pointer"]) / 4
        assert media > pointer + 0.1


#: Every ``TraceStats`` field of ``generate(name, length=8000)``, with
#: the two mixes as ordered ``(name, fraction)`` lists.  Exact values:
#: any change in how the statistics are computed must reproduce them to
#: the last bit.
PINNED_STATS = {
    "mcf": {
        'count': 8000,
        'op_mix': [('branch', 0.21825), ('call', 0.009125), ('ialu', 0.3825), ('imul', 0.01425), ('ishift', 0.058), ('jump', 0.0035), ('load', 0.231375), ('return', 0.009125), ('store', 0.073875)],
        'low_width_result_fraction': 0.44252140644926213,
        'low_width_operand_fraction': 0.30323995950050625,
        'branch_fraction': 0.21825,
        'taken_fraction': 0.8213058419243986,
        'memory_fraction': 0.30525,
        'dcache_encoding_mix': [('ALL_ZEROS', 0.35094185094185093), ('ALL_ONES', 0.03767403767403767), ('SAME_AS_ADDRESS', 0.269041769041769), ('LITERAL', 0.34234234234234234)],
        'address_upper_match_fraction': 0.31695331695331697,
        'near_target_fraction': 1.0,
    },
    "mpeg2": {
        'count': 8000,
        'op_mix': [('branch', 0.07775), ('call', 0.008875), ('fadd', 0.01925), ('ialu', 0.5215), ('imul', 0.075375), ('ishift', 0.093875), ('jump', 0.00025), ('load', 0.117125), ('return', 0.008875), ('store', 0.077125)],
        'low_width_result_fraction': 0.6852854711434319,
        'low_width_operand_fraction': 0.5325221571278353,
        'branch_fraction': 0.07775,
        'taken_fraction': 0.9035369774919614,
        'memory_fraction': 0.19425,
        'dcache_encoding_mix': [('ALL_ZEROS', 0.7921492921492922), ('SAME_AS_ADDRESS', 0.005148005148005148), ('LITERAL', 0.20270270270270271)],
        'address_upper_match_fraction': 0.6068211068211068,
        'near_target_fraction': 1.0,
    },
    "gzip": {
        'count': 8000,
        'op_mix': [('branch', 0.1605), ('call', 0.005), ('fdiv', 0.00375), ('ialu', 0.511625), ('imul', 0.0165), ('ishift', 0.026375), ('jump', 0.003), ('load', 0.17575), ('return', 0.005), ('store', 0.0925)],
        'low_width_result_fraction': 0.45549469359808287,
        'low_width_operand_fraction': 0.29953696311671724,
        'branch_fraction': 0.1605,
        'taken_fraction': 0.8123052959501558,
        'memory_fraction': 0.26825,
        'dcache_encoding_mix': [('ALL_ZEROS', 0.5852749301025163), ('ALL_ONES', 0.030288909599254427), ('SAME_AS_ADDRESS', 0.11929170549860205), ('LITERAL', 0.2651444547996272)],
        'address_upper_match_fraction': 0.3984156570363467,
        'near_target_fraction': 1.0,
    },
}


def _fields(stats):
    fields = dataclasses.asdict(stats)
    fields["op_mix"] = [(op.value, f) for op, f in stats.op_mix.items()]
    fields["dcache_encoding_mix"] = [
        (enc.name, f) for enc, f in stats.dcache_encoding_mix.items()
    ]
    return fields


class TestPinnedStats:
    @pytest.mark.parametrize("name", sorted(PINNED_STATS))
    def test_generated_trace(self, name):
        stats = TraceStats.from_trace(generate(name, length=8000))
        assert _fields(stats) == PINNED_STATS[name]

    def test_mcf_low_width_results(self):
        stats = TraceStats.from_trace(generate("mcf", length=8000))
        assert stats.low_width_result_fraction == 0.44252140644926213

    def test_empty_trace(self):
        """Every fraction's denominator is zero."""
        stats = TraceStats.from_trace(TraceBuilder().build())
        assert _fields(stats) == {
            "count": 0, "op_mix": [],
            "low_width_result_fraction": 0.0,
            "low_width_operand_fraction": 0.0,
            "branch_fraction": 0.0, "taken_fraction": 0.0,
            "memory_fraction": 0.0, "dcache_encoding_mix": [],
            "address_upper_match_fraction": 0.0,
            "near_target_fraction": 0.0,
        }

    def test_no_branch_no_memory(self):
        """No branches, memory ops, taken transfers or register-writing
        integer ops: the taken, address-match, near-target, encoding
        and low-width-result denominators are all zero."""
        trace = (TraceBuilder()
                 .fp(3, op=OpClass.FADD)
                 .fp(4, srcs=(3,), op=OpClass.FMUL, result=1 << 40)
                 .build())
        assert _fields(TraceStats.from_trace(trace)) == {
            "count": 2, "op_mix": [("fadd", 0.5), ("fmul", 0.5)],
            "low_width_result_fraction": 0.0,
            "low_width_operand_fraction": 0.0,
            "branch_fraction": 0.0, "taken_fraction": 0.0,
            "memory_fraction": 0.0, "dcache_encoding_mix": [],
            "address_upper_match_fraction": 0.0,
            "near_target_fraction": 0.0,
        }

    def test_integer_only(self):
        """Integer results and operands, still no branch or memory op."""
        trace = (TraceBuilder()
                 .alu(1, 5)
                 .alu(2, 1 << 40, srcs=(1,))
                 .alu(3, 7, srcs=(1, 2), op=OpClass.ISHIFT)
                 .build())
        assert _fields(TraceStats.from_trace(trace)) == {
            "count": 3, "op_mix": [("ialu", 2 / 3), ("ishift", 1 / 3)],
            "low_width_result_fraction": 2 / 3,
            "low_width_operand_fraction": 2 / 3,
            "branch_fraction": 0.0, "taken_fraction": 0.0,
            "memory_fraction": 0.0, "dcache_encoding_mix": [],
            "address_upper_match_fraction": 0.0,
            "near_target_fraction": 0.0,
        }
