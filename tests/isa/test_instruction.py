"""Instruction categories, def/use and value-semantics tests."""

import copy
import dataclasses
import pickle

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, OpcodeKind
from repro.isa.registers import RA, Register
from tests.isa.assembler import parse_instruction
from tests.isa.defuse import (
    defs,
    is_conditional_branch,
    is_load,
    is_memory,
    is_register_indirect,
    kind,
    nop,
    uses,
)


def inst(text):
    return parse_instruction(text)


class TestCategories:
    def test_alu(self):
        i = inst("addu $t2, $t0, $t1")
        assert kind(i) is OpcodeKind.ALU
        assert not (is_load(i) or is_memory(i) or i.is_cti)

    def test_load(self):
        i = inst("lw $t0, 4($sp)")
        assert is_load(i) and is_memory(i) and kind(i) is OpcodeKind.LOAD

    def test_store(self):
        i = inst("sw $t0, 4($sp)")
        assert kind(i) is OpcodeKind.STORE and is_memory(i) and not is_load(i)

    def test_conditional_branch(self):
        i = inst("beq $t0, $t1, done")
        assert i.is_cti and is_conditional_branch(i) and not is_register_indirect(i)

    def test_direct_jump(self):
        i = inst("j loop")
        assert i.is_cti and kind(i) is OpcodeKind.JUMP and not is_register_indirect(i)

    def test_register_indirect(self):
        i = inst("jr $ra")
        assert i.is_cti and is_register_indirect(i) and not is_conditional_branch(i)

    def test_jalr_is_register_indirect(self):
        assert is_register_indirect(inst("jalr $ra, $t9"))

    def test_nop(self):
        assert kind(nop()) is OpcodeKind.NOP
        assert not nop().is_cti


class TestDefUse:
    def test_alu_three_reg(self):
        i = inst("subu $t5, $t5, $t4")
        assert defs(i) == frozenset({Register(13)})
        assert uses(i) == frozenset({Register(13), Register(12)})

    def test_load_defs_and_uses(self):
        # Paper's example: lw r3, 100(r5)
        i = inst("lw $3, 100($5)")
        assert defs(i) == frozenset({Register(3)})
        assert uses(i) == frozenset({Register(5)})
        assert i.base == Register(5)

    def test_store_has_no_defs(self):
        i = inst("sw $t0, 0($sp)")
        assert defs(i) == frozenset()
        assert Register(8) in uses(i) and Register(29) in uses(i)

    def test_zero_register_never_defined(self):
        i = inst("addu $zero, $t0, $t1")
        assert defs(i) == frozenset()

    def test_zero_register_not_reported_as_use(self):
        i = inst("addu $t0, $zero, $zero")
        assert uses(i) == frozenset()

    def test_branch_uses_condition_registers(self):
        i = inst("bne $t0, $t1, loop")
        assert uses(i) == frozenset({Register(8), Register(9)})
        assert defs(i) == frozenset()

    def test_jal_defines_ra(self):
        assert RA in defs(inst("jal callee"))

    def test_jalr_defines_link_register(self):
        i = inst("jalr $t0, $t9")
        assert Register(8) in defs(i)
        assert Register(25) in uses(i)

    def test_jr_uses_target_register(self):
        assert RA in uses(inst("jr $ra"))

    def test_nop_has_empty_def_use(self):
        assert defs(nop()) == frozenset()
        assert uses(nop()) == frozenset()

    def test_address_register_none_for_alu(self):
        assert inst("addu $t0, $t1, $t2").base is None


class TestValueSemantics:
    def test_equality(self):
        assert inst("addu $t0, $t1, $t2") == inst("addu $t0, $t1, $t2")
        assert inst("addu $t0, $t1, $t2") != inst("addu $t0, $t1, $t3")

    def test_hashable(self):
        assert len({inst("nop"), nop()}) == 1

    #: One instruction with every field set off its default.
    FULL = dict(
        opcode=Opcode.LW,
        dest=Register(8),
        sources=(Register(9), Register(10)),
        imm=-7,
        base=Register(29),
        offset=12,
        target="p1.b3",
    )

    def test_fields_and_defaults(self):
        full = Instruction(**self.FULL)
        assert {name: getattr(full, name) for name in self.FULL} == self.FULL
        bare = Instruction(Opcode.NOP)
        assert (bare.dest, bare.sources, bare.imm, bare.base, bare.offset, bare.target) == (
            None, (), None, None, 0, None,
        )
        positional = Instruction(*self.FULL.values())
        assert positional == full

    def test_equal_instances_hash_equal(self):
        a, b = Instruction(**self.FULL), Instruction(**self.FULL)
        assert a is not b and a == b and hash(a) == hash(b)
        for name, other in (("imm", 3), ("offset", 0), ("target", None)):
            changed = Instruction(**{**self.FULL, name: other})
            assert changed != a, name

    def test_not_equal_to_a_tuple_of_its_fields(self):
        full = Instruction(**self.FULL)
        fields = tuple(self.FULL.values())
        assert full != fields and fields != full
        assert not full == fields

    def test_assignment_and_deletion_raise(self):
        full = Instruction(**self.FULL)
        for name in (*self.FULL, "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(full, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(full, name)
        assert Instruction(**self.FULL) == full
        assert not hasattr(full, "__dict__")

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda i: pickle.loads(pickle.dumps(i))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_values(self, clone):
        for original in (Instruction(**self.FULL), nop(), inst("jalr $t0, $t9")):
            twin = clone(original)
            assert type(twin) is Instruction
            assert twin == original and hash(twin) == hash(original)
            assert {name: getattr(twin, name) for name in self.FULL} == {
                name: getattr(original, name) for name in self.FULL
            }

    def test_repr_names_every_field(self):
        text = repr(Instruction(**self.FULL))
        assert text.startswith("Instruction(opcode=")
        for name, value in self.FULL.items():
            assert f"{name}={value!r}" in text
