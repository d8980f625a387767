"""Tests for the trace instruction record."""

import dataclasses
import pickle

import pytest

from repro.isa.instruction import TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.values import to_unsigned


def make_alu(result=5, srcs=(1, 2), src_values=(3, 4), pc=0x1000):
    return TraceInstruction(
        pc=pc, op=OpClass.IALU, srcs=srcs, dst=3,
        result=result, src_values=src_values,
    )


class TestConstruction:
    def test_memory_requires_address(self):
        with pytest.raises(ValueError):
            TraceInstruction(pc=0x1000, op=OpClass.LOAD, dst=1)

    def test_taken_control_requires_target(self):
        with pytest.raises(ValueError):
            TraceInstruction(pc=0x1000, op=OpClass.BRANCH, taken=True)

    def test_not_taken_branch_needs_no_target(self):
        inst = TraceInstruction(pc=0x1000, op=OpClass.BRANCH, taken=False)
        assert inst.next_pc == 0x1004

    def test_src_values_must_match_srcs(self):
        with pytest.raises(ValueError):
            TraceInstruction(pc=0, op=OpClass.IALU, srcs=(1, 2), src_values=(3,))

    def test_src_values_may_be_omitted(self):
        inst = TraceInstruction(pc=0, op=OpClass.IALU, srcs=(1, 2))
        assert inst.operands_are_low_width  # vacuously true


class TestNextPc:
    def test_sequential(self):
        assert make_alu(pc=0x2000).next_pc == 0x2004

    def test_taken_branch(self):
        inst = TraceInstruction(pc=0x1000, op=OpClass.BRANCH, taken=True, target=0x1100)
        assert inst.next_pc == 0x1100

    def test_call(self):
        inst = TraceInstruction(pc=0x1000, op=OpClass.CALL, taken=True, target=0x8000)
        assert inst.next_pc == 0x8000


class TestWidthProperties:
    def test_low_width_all_narrow(self):
        assert make_alu(result=10, src_values=(1, 2)).is_low_width

    def test_wide_result_not_low(self):
        inst = make_alu(result=1 << 20, src_values=(1, 2))
        assert not inst.result_is_low_width
        assert not inst.is_low_width

    def test_wide_operand_not_low(self):
        inst = make_alu(result=1, src_values=(1 << 40, 2))
        assert inst.result_is_low_width
        assert not inst.operands_are_low_width
        assert not inst.is_low_width

    def test_negative_small_is_low(self):
        inst = make_alu(result=to_unsigned(-3), src_values=(to_unsigned(-1), 2))
        assert inst.is_low_width

    def test_writes_register(self):
        assert make_alu().writes_register
        store = TraceInstruction(
            pc=0, op=OpClass.STORE, srcs=(1, 2), mem_addr=0x100, mem_value=5,
        )
        assert not store.writes_register


class TestDescribe:
    def test_describe_contains_pc_and_op(self):
        text = make_alu(pc=0x1234).describe()
        assert "0x00001234" in text
        assert "ialu" in text

    def test_describe_branch_direction(self):
        taken = TraceInstruction(pc=0, op=OpClass.BRANCH, taken=True, target=0x40)
        assert "(T" in taken.describe()
        not_taken = TraceInstruction(pc=0, op=OpClass.BRANCH, taken=False)
        assert "(NT" in not_taken.describe()


class TestDataclassContract:
    """The hand-written ``__init__`` keeps the frozen-dataclass contract."""

    FIELDS = ("pc", "op", "srcs", "dst", "result", "src_values",
              "mem_addr", "mem_value", "taken", "target")

    def test_defaults(self):
        inst = TraceInstruction(0x40, OpClass.NOP)
        assert (inst.srcs, inst.dst, inst.result, inst.src_values) == ((), None, 0, ())
        assert (inst.mem_addr, inst.mem_value, inst.taken, inst.target) == (
            None, None, False, None
        )

    def test_positional_equals_keyword(self):
        positional = TraceInstruction(
            0x1000, OpClass.LOAD, (1,), 2, 7, (0x80,), 0x80, 7, False, None
        )
        keyword = TraceInstruction(
            pc=0x1000, op=OpClass.LOAD, srcs=(1,), dst=2, result=7,
            src_values=(0x80,), mem_addr=0x80, mem_value=7,
        )
        assert positional == keyword
        assert [getattr(keyword, name) for name in self.FIELDS] == [
            0x1000, OpClass.LOAD, (1,), 2, 7, (0x80,), 0x80, 7, False, None
        ]

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            TraceInstruction(pc=0, op=OpClass.NOP, width=4)

    def test_missing_address_message(self):
        with pytest.raises(ValueError,
                           match=r"^OpClass\.STORE at pc=0x1000 requires mem_addr$"):
            TraceInstruction(pc=0x1000, op=OpClass.STORE, srcs=(1, 2))

    def test_missing_target_message(self):
        with pytest.raises(ValueError,
                           match=r"^taken OpClass\.CALL at pc=0x2000 requires target$"):
            TraceInstruction(pc=0x2000, op=OpClass.CALL, taken=True)

    def test_src_values_length_message(self):
        with pytest.raises(
            ValueError,
            match=r"^src_values length 1 does not match srcs length 2$",
        ):
            TraceInstruction(pc=0, op=OpClass.IALU, srcs=(1, 2), src_values=(3,))

    def test_frozen(self):
        inst = make_alu()
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.pc = 0x2000
        with pytest.raises(dataclasses.FrozenInstanceError):
            del inst.result

    def test_fields(self):
        assert tuple(f.name for f in dataclasses.fields(TraceInstruction)) == self.FIELDS

    def test_replace_revalidates(self):
        inst = make_alu()
        moved = dataclasses.replace(inst, pc=0x2000)
        assert moved.pc == 0x2000
        assert moved == make_alu(pc=0x2000)
        with pytest.raises(ValueError, match="requires mem_addr"):
            dataclasses.replace(inst, op=OpClass.LOAD)

    def test_equality_and_hash(self):
        assert make_alu() == make_alu()
        assert hash(make_alu()) == hash(make_alu())
        assert make_alu() != make_alu(result=6)
        assert len({make_alu(), make_alu(), make_alu(pc=0x2000)}) == 2

    def test_equality_ignores_cached_widths(self):
        warmed = make_alu()
        assert warmed.is_low_width
        assert warmed == make_alu()
        assert hash(warmed) == hash(make_alu())

    def test_repr(self):
        assert repr(make_alu()) == (
            "TraceInstruction(pc=4096, op=<OpClass.IALU: 'ialu'>, srcs=(1, 2), "
            "dst=3, result=5, src_values=(3, 4), mem_addr=None, "
            "mem_value=None, taken=False, target=None)"
        )

    def test_pickle_round_trip(self):
        inst = TraceInstruction(
            pc=0x1000, op=OpClass.BRANCH, srcs=(4,), src_values=(1 << 40,),
            taken=True, target=0x0F00,
        )
        assert not inst.operands_are_low_width
        clone = pickle.loads(pickle.dumps(inst))
        assert clone == inst
        assert [getattr(clone, name) for name in self.FIELDS] == [
            getattr(inst, name) for name in self.FIELDS
        ]
        assert not clone.is_low_width


class TestCachedWidths:
    @pytest.mark.parametrize(
        "name", ["result_is_low_width", "operands_are_low_width", "is_low_width"]
    )
    def test_computed_once_per_instruction(self, name):
        inst = make_alu(result=1 << 20)
        assert name not in vars(inst)
        first = getattr(inst, name)
        assert vars(inst)[name] is first
        assert getattr(inst, name) is first

    def test_values(self):
        inst = make_alu(result=1, src_values=(1 << 40, 2))
        assert inst.result_is_low_width
        assert not inst.operands_are_low_width
        assert not inst.is_low_width
