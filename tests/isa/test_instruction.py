"""Tests for the trace row constructor and its width classification."""

import pytest

from repro.cpu.predecode import predecode
from repro.isa.builder import TraceBuilder
from repro.isa.compiled import TRACE_DTYPE, compile_trace, trace_row
from repro.isa.opcodes import OpClass
from repro.isa.values import to_unsigned


def make_alu(result=5, srcs=(1, 2), src_values=(3, 4), pc=0x1000):
    return trace_row(
        pc=pc, op=OpClass.IALU, srcs=srcs, dst=3,
        result=result, src_values=src_values,
    )


def columns(*rows):
    """The pre-decoded columns of a trace of ``rows``."""
    return predecode(compile_trace("rows", list(rows)))


def field(row, name):
    return row[TRACE_DTYPE.names.index(name)]


class TestConstruction:
    def test_memory_requires_address(self):
        with pytest.raises(ValueError):
            trace_row(pc=0x1000, op=OpClass.LOAD, dst=1)

    def test_taken_control_requires_target(self):
        with pytest.raises(ValueError):
            trace_row(pc=0x1000, op=OpClass.BRANCH, taken=True)

    def test_not_taken_branch_needs_no_target(self):
        row = trace_row(pc=0x1000, op=OpClass.BRANCH, taken=False)
        assert not field(row, "has_target")

    def test_src_values_must_match_srcs(self):
        with pytest.raises(ValueError):
            trace_row(pc=0, op=OpClass.IALU, srcs=(1, 2), src_values=(3,))

    def test_src_values_may_be_omitted(self):
        row = trace_row(pc=0, op=OpClass.IALU, srcs=(1, 2))
        assert field(row, "nvals") == 0
        assert columns(row).operands_low == [True]  # vacuously true


class TestNextPc:
    """The architectural next PC the builder's path check follows."""

    def test_sequential(self):
        assert TraceBuilder(start_pc=0x2000).alu(1, 5).next_pc == 0x2004

    def test_taken_branch(self):
        builder = TraceBuilder(start_pc=0x1000).branch(taken=True, target=0x1100)
        assert builder.next_pc == 0x1100

    def test_call(self):
        assert TraceBuilder(start_pc=0x1000).call(0x8000).next_pc == 0x8000


class TestWidthProperties:
    """The per-instruction width classes the core reads (Section 3)."""

    def test_low_width_all_narrow(self):
        assert columns(make_alu(result=10, src_values=(1, 2))).actual_low == [True]

    def test_wide_result_not_low(self):
        pre = columns(make_alu(result=1 << 20, src_values=(1, 2)))
        assert pre.result_low == [False]
        assert pre.actual_low == [False]

    def test_wide_operand_not_low(self):
        pre = columns(make_alu(result=1, src_values=(1 << 40, 2)))
        assert pre.result_low == [True]
        assert pre.operands_low == [False]
        assert pre.actual_low == [False]

    def test_negative_small_is_low(self):
        row = make_alu(result=to_unsigned(-3), src_values=(to_unsigned(-1), 2))
        assert columns(row).actual_low == [True]

    def test_writes_register(self):
        store = trace_row(
            pc=0x1004, op=OpClass.STORE, srcs=(1, 2), mem_addr=0x100, mem_value=5,
        )
        assert columns(make_alu(), store).dsts == [3, None]


class TestDataclassContract:
    """The constructor's signature, defaults and error messages."""

    def test_defaults(self):
        row = trace_row(0x40, OpClass.NOP)
        assert row == (0x40, list(OpClass).index(OpClass.NOP), 0, 0, 0, 0, -1,
                       0, 0, 0, False, 0, False, 0, False, False, 0)

    def test_positional_equals_keyword(self):
        positional = trace_row(
            0x1000, OpClass.LOAD, (1,), 2, 7, (0x80,), 0x80, 7, False, None
        )
        keyword = trace_row(
            pc=0x1000, op=OpClass.LOAD, srcs=(1,), dst=2, result=7,
            src_values=(0x80,), mem_addr=0x80, mem_value=7,
        )
        assert positional == keyword

    def test_fields(self):
        """One value per column, in the dtype's field order."""
        row = make_alu()
        assert len(row) == len(TRACE_DTYPE.names)
        packed = compile_trace("one", [row]).array[0]
        assert packed.tolist() == row
        assert (field(row, "pc"), field(row, "dst"), field(row, "result")) \
            == (0x1000, 3, 5)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            trace_row(pc=0, op=OpClass.NOP, width=4)

    def test_missing_address_message(self):
        with pytest.raises(ValueError,
                           match=r"^OpClass\.STORE at pc=0x1000 requires mem_addr$"):
            trace_row(pc=0x1000, op=OpClass.STORE, srcs=(1, 2))

    def test_missing_target_message(self):
        with pytest.raises(ValueError,
                           match=r"^taken OpClass\.CALL at pc=0x2000 requires target$"):
            trace_row(pc=0x2000, op=OpClass.CALL, taken=True)

    def test_src_values_length_message(self):
        with pytest.raises(
            ValueError,
            match=r"^src_values length 1 does not match srcs length 2$",
        ):
            trace_row(pc=0, op=OpClass.IALU, srcs=(1, 2), src_values=(3,))


class TestCachedWidths:
    COLUMNS = {"result_is_low_width": "result_low",
               "operands_are_low_width": "operands_low",
               "is_low_width": "actual_low"}

    @pytest.mark.parametrize("name", list(COLUMNS))
    def test_computed_once_per_instruction(self, name):
        """Width classes are computed once per trace, for every config
        that replays it."""
        trace = compile_trace("once", [make_alu(result=1 << 20)])
        first = getattr(predecode(trace), self.COLUMNS[name])
        assert getattr(predecode(trace), self.COLUMNS[name]) is first

    def test_values(self):
        pre = columns(make_alu(result=1, src_values=(1 << 40, 2)))
        assert (pre.result_low, pre.operands_low, pre.actual_low) \
            == ([True], [False], [False])
