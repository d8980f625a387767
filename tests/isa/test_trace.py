"""Tests for the trace container and summary statistics."""

from collections import Counter

import pytest

from repro.isa.compiled import OPCLASS_LIST, TRACE_DTYPE, compile_trace, trace_row
from repro.isa.opcodes import OpClass
from repro.isa.values import (
    UpperBitsEncoding,
    classify_upper_bits,
    is_low_width,
    to_unsigned,
    upper_bits,
)
from repro.workloads.suite import generate
from repro.workloads.validation import TraceStats


def _alu(pc, result, src_values=()):
    srcs = tuple(range(len(src_values)))
    return trace_row(pc=pc, op=OpClass.IALU, srcs=srcs, dst=5,
                     result=result, src_values=src_values)


def _load(pc, addr, value):
    return trace_row(pc=pc, op=OpClass.LOAD, srcs=(1,), dst=2,
                     result=value, src_values=(addr,),
                     mem_addr=addr, mem_value=value)


def _store(pc, addr, value):
    return trace_row(pc=pc, op=OpClass.STORE, srcs=(1, 2),
                     src_values=(addr, value),
                     mem_addr=addr, mem_value=value)


def _branch(pc, taken, target=None):
    return trace_row(pc=pc, op=OpClass.BRANCH, srcs=(1,), src_values=(0,),
                     taken=taken, target=target)


def _stats(rows):
    return TraceStats.from_trace(compile_trace("t", rows))


class TestTraceContainer:
    def test_len_iter_index(self):
        rows = [_alu(0, 1), _alu(4, 2)]
        trace = compile_trace("t", rows)
        assert len(trace) == 2
        assert trace.array.dtype == TRACE_DTYPE
        assert trace.array.tolist() == rows
        assert trace.array[1]["result"] == 2

    def test_metadata(self):
        trace = compile_trace("t", [], benchmark_class="MiBench", seed=7)
        assert trace.benchmark_class == "MiBench"
        assert trace.seed == 7


class TestTraceStats:
    def test_empty(self):
        stats = _stats([])
        assert stats.count == 0
        assert stats.low_width_result_fraction == 0.0

    def test_low_width_fraction(self):
        insts = [_alu(0, 1), _alu(4, 1 << 40), _alu(8, 3), _alu(12, 7)]
        stats = _stats(insts)
        assert stats.low_width_result_fraction == 0.75

    def test_operand_fraction(self):
        insts = [_alu(0, 1, (1, 1 << 40))]
        stats = _stats(insts)
        assert stats.low_width_operand_fraction == 0.5

    def test_branch_and_taken_fractions(self):
        insts = [_branch(0, True, 0x40), _branch(4, False), _alu(8, 1), _alu(12, 1)]
        stats = _stats(insts)
        assert stats.branch_fraction == 0.5
        assert stats.taken_fraction == 0.5

    def test_memory_fraction(self):
        insts = [_load(0, 0x1000, 5), _alu(4, 1)]
        stats = _stats(insts)
        assert stats.memory_fraction == 0.5

    def test_pam_address_match(self):
        """Second access with the same upper 48 bits as the last store matches."""
        insts = [
            _store(0, 0x2AAA_0000_1000, 5),
            _load(4, 0x2AAA_0000_1008, 5),   # same uppers -> match
            _load(8, 0x7FFF_0000_0000, 5),   # different -> no match
        ]
        stats = _stats(insts)
        assert abs(stats.address_upper_match_fraction - 1 / 3) < 1e-9

    def test_near_target_fraction(self):
        insts = [
            _branch(0x1000, True, 0x1100),            # same uppers
            _branch(0x1004, True, 0x7F00_0000_0000),  # far
        ]
        stats = _stats(insts)
        assert stats.near_target_fraction == 0.5

    def test_encoding_mix(self):
        insts = [
            _store(0, 0x2AAA_0000_1000, 0),                  # ALL_ZEROS
            _store(4, 0x2AAA_0000_1008, to_unsigned(-2)),    # ALL_ONES
            _store(8, 0x2AAA_0000_1010, 0xDEAD_BEEF_CAFE_0001),  # LITERAL
        ]
        stats = _stats(insts)
        mix = stats.dcache_encoding_mix
        assert abs(mix[UpperBitsEncoding.ALL_ZEROS] - 1 / 3) < 1e-9
        assert abs(mix[UpperBitsEncoding.ALL_ONES] - 1 / 3) < 1e-9
        assert abs(mix[UpperBitsEncoding.LITERAL] - 1 / 3) < 1e-9

    def test_format_is_text(self):
        stats = _stats([_alu(0, 1)])
        text = stats.format()
        assert "instructions" in text
        assert "low-width results" in text

    def test_trace_stats_shortcut(self):
        trace = compile_trace("t", [_alu(0, 1)])
        assert TraceStats.from_trace(trace).count == 1


def reference_stats(trace) -> TraceStats:
    """The per-instruction loop ``TraceStats.from_trace`` replaced,
    walking the rows one at a time."""
    op_counts: Counter = Counter()
    enc_counts: Counter = Counter()
    int_writes = low_results = int_reads = low_operands = 0
    branches = taken_branches = memory = addr_matches = 0
    transfers = near_targets = 0
    last_store_upper = None
    for (pc, code, nsrcs, nvals, src0, src1, dst, result, sval0, sval1,
         has_mem_addr, mem_addr, has_mem_value, mem_value, taken,
         has_target, target) in trace.array.tolist():
        op = OPCLASS_LIST[code]
        op_counts[op] += 1
        if op.is_memory:
            memory += 1
            if last_store_upper is not None \
                    and upper_bits(mem_addr) == last_store_upper:
                addr_matches += 1
            if op is OpClass.STORE:
                last_store_upper = upper_bits(mem_addr)
            if has_mem_value:
                enc_counts[classify_upper_bits(mem_value, mem_addr)] += 1
        if op is OpClass.BRANCH:
            branches += 1
            taken_branches += taken
        if op.is_control and taken and has_target:
            transfers += 1
            near_targets += upper_bits(target) == upper_bits(pc)
        if op.is_integer_datapath:
            if dst >= 0:
                int_writes += 1
                low_results += is_low_width(result)
            for value in (sval0, sval1)[:nvals]:
                int_reads += 1
                low_operands += is_low_width(value)

    def frac(n, d):
        return n / d if d else 0.0

    total = len(trace)
    return TraceStats(
        count=total,
        op_mix={op: frac(c, total) for op, c in
                sorted(op_counts.items(), key=lambda kv: kv[0].value)},
        low_width_result_fraction=frac(low_results, int_writes),
        low_width_operand_fraction=frac(low_operands, int_reads),
        branch_fraction=frac(branches, total),
        taken_fraction=frac(taken_branches, branches),
        memory_fraction=frac(memory, total),
        dcache_encoding_mix={enc: frac(c, sum(enc_counts.values()))
                             for enc, c in sorted(enc_counts.items())},
        address_upper_match_fraction=frac(addr_matches, memory),
        near_target_fraction=frac(near_targets, transfers),
    )


class TestStatsAgainstLoop:
    @pytest.mark.parametrize("name", ["gzip", "swim", "adpcm", "susan",
                                      "yacr2", "blast"])
    def test_generated_trace(self, name):
        trace = generate(name, length=3_000)
        stats = TraceStats.from_trace(trace)
        reference = reference_stats(trace)
        assert stats == reference
        assert list(stats.op_mix) == list(reference.op_mix)
        assert list(stats.dcache_encoding_mix) == \
            list(reference.dcache_encoding_mix)
