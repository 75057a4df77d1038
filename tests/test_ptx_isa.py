"""Unit tests for the ISA definitions."""

import enum
import pickle

import pytest

from repro.ptx import isa
from repro.ptx.isa import (
    CmpOp,
    DType,
    LatencyClass,
    Opcode,
    RegClass,
    SRC_ARITY,
    latency_class,
)


class TestDType:
    def test_bits(self):
        assert DType.U32.bits == 32
        assert DType.F64.bits == 64
        assert DType.U8.bits == 8
        assert DType.PRED.bits == 1

    def test_bytes(self):
        assert DType.U32.bytes == 4
        assert DType.F64.bytes == 8
        assert DType.PRED.bytes == 1

    def test_is_float(self):
        assert DType.F32.is_float
        assert DType.F64.is_float
        assert not DType.S32.is_float
        assert not DType.B32.is_float
        for dtype in DType:
            assert dtype.is_float is (dtype in (DType.F32, DType.F64))

    def test_is_signed(self):
        assert DType.S32.is_signed
        assert not DType.U32.is_signed
        assert not DType.F32.is_signed

    def test_reg_class_mapping(self):
        assert DType.U32.reg_class is RegClass.R32
        assert DType.S32.reg_class is RegClass.R32
        assert DType.B32.reg_class is RegClass.R32
        assert DType.U64.reg_class is RegClass.R64
        assert DType.S64.reg_class is RegClass.R64
        assert DType.F32.reg_class is RegClass.F32
        assert DType.F64.reg_class is RegClass.F64
        assert DType.PRED.reg_class is RegClass.PRED


class TestRegClass:
    def test_slot_costs(self):
        assert RegClass.R32.slots == 1
        assert RegClass.F32.slots == 1
        assert RegClass.R64.slots == 2
        assert RegClass.F64.slots == 2

    def test_predicates_cost_no_slots(self):
        assert RegClass.PRED.slots == 0


class TestLatencyClass:
    def test_memory_ops(self):
        assert latency_class(Opcode.LD) is LatencyClass.MEM
        assert latency_class(Opcode.ST) is LatencyClass.MEM

    def test_sfu_ops(self):
        for op in (Opcode.SQRT, Opcode.SIN, Opcode.COS, Opcode.DIV, Opcode.RCP):
            assert latency_class(op) is LatencyClass.SFU

    def test_alu_ops(self):
        for op in (Opcode.ADD, Opcode.MUL, Opcode.MAD, Opcode.SETP, Opcode.SELP):
            assert latency_class(op) is LatencyClass.ALU

    def test_control_and_barrier(self):
        assert latency_class(Opcode.BRA) is LatencyClass.CTRL
        assert latency_class(Opcode.EXIT) is LatencyClass.CTRL
        assert latency_class(Opcode.BAR) is LatencyClass.BARRIER


class TestArity:
    def test_every_opcode_has_arity(self):
        for op in Opcode:
            assert op in SRC_ARITY

    def test_selected_arities(self):
        assert SRC_ARITY[Opcode.MAD] == 3
        assert SRC_ARITY[Opcode.SELP] == 3
        assert SRC_ARITY[Opcode.MOV] == 1
        assert SRC_ARITY[Opcode.EXIT] == 0


class TestCmpOp:
    def test_all_six_comparisons(self):
        assert {c.value for c in CmpOp} == {"eq", "ne", "lt", "le", "gt", "ge"}


#: Every enum the module defines, found rather than listed, so a new
#: one is held to the same rules.
ENUMS = [
    value for value in vars(isa).values()
    if isinstance(value, type) and issubclass(value, enum.Enum)
    and value.__module__ == isa.__name__ and len(value) > 0
]


class TestEnumHashing:
    def test_every_enum_is_found(self):
        assert {e.__name__ for e in ENUMS} == {
            "RegClass", "DType", "Space", "Opcode", "CmpOp", "LatencyClass",
        }

    @pytest.mark.parametrize("kind", ENUMS, ids=lambda e: e.__name__)
    def test_members_hash_by_identity(self, kind):
        """A member hashes in C, by identity, consistently with its
        equality: members compare equal only to themselves."""
        members = list(kind)
        assert type(members[0]).__hash__ is object.__hash__
        for a in members:
            assert hash(a) == object.__hash__(a) == hash(a)
            for b in members:
                assert (a == b) is (a is b)
        assert len({hash(m) for m in members}) == len(members)

    @pytest.mark.parametrize("kind", ENUMS, ids=lambda e: e.__name__)
    def test_members_unpickle_to_themselves(self, kind):
        """So a decoded member finds entries keyed by the original."""
        by_member = {member: member.value for member in kind}
        for member in kind:
            decoded = pickle.loads(pickle.dumps(member))
            assert decoded is member
            assert hash(decoded) == hash(member)
            assert by_member[decoded] == member.value
