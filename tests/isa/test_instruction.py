"""Instruction categories and def/use tests."""

import pytest

from repro.isa.assembler import parse_instruction
from repro.isa.instruction import Instruction, nop
from repro.isa.opcodes import OpcodeKind
from repro.isa.registers import RA, ZERO, Register


def inst(text):
    return parse_instruction(text)


class TestCategories:
    def test_alu(self):
        i = inst("addu $t2, $t0, $t1")
        assert i.kind is OpcodeKind.ALU
        assert not (i.is_load or i.is_memory or i.is_cti)

    def test_load(self):
        i = inst("lw $t0, 4($sp)")
        assert i.is_load and i.is_memory and i.kind is OpcodeKind.LOAD

    def test_store(self):
        i = inst("sw $t0, 4($sp)")
        assert i.kind is OpcodeKind.STORE and i.is_memory and not i.is_load

    def test_conditional_branch(self):
        i = inst("beq $t0, $t1, done")
        assert i.is_cti and i.is_conditional_branch and not i.is_register_indirect

    def test_direct_jump(self):
        i = inst("j loop")
        assert i.is_cti and i.kind is OpcodeKind.JUMP and not i.is_register_indirect

    def test_register_indirect(self):
        i = inst("jr $ra")
        assert i.is_cti and i.is_register_indirect and not i.is_conditional_branch

    def test_jalr_is_register_indirect(self):
        assert inst("jalr $ra, $t9").is_register_indirect

    def test_nop(self):
        assert nop().kind is OpcodeKind.NOP
        assert not nop().is_cti


class TestDefUse:
    def test_alu_three_reg(self):
        i = inst("subu $t5, $t5, $t4")
        assert i.defs == frozenset({Register(13)})
        assert i.uses == frozenset({Register(13), Register(12)})

    def test_load_defs_and_uses(self):
        # Paper's example: lw r3, 100(r5)
        i = inst("lw $3, 100($5)")
        assert i.defs == frozenset({Register(3)})
        assert i.uses == frozenset({Register(5)})
        assert i.base == Register(5)

    def test_store_has_no_defs(self):
        i = inst("sw $t0, 0($sp)")
        assert i.defs == frozenset()
        assert Register(8) in i.uses and Register(29) in i.uses

    def test_zero_register_never_defined(self):
        i = inst("addu $zero, $t0, $t1")
        assert i.defs == frozenset()

    def test_zero_register_not_reported_as_use(self):
        i = inst("addu $t0, $zero, $zero")
        assert i.uses == frozenset()

    def test_branch_uses_condition_registers(self):
        i = inst("bne $t0, $t1, loop")
        assert i.uses == frozenset({Register(8), Register(9)})
        assert i.defs == frozenset()

    def test_jal_defines_ra(self):
        assert RA in inst("jal callee").defs

    def test_jalr_defines_link_register(self):
        i = inst("jalr $t0, $t9")
        assert Register(8) in i.defs
        assert Register(25) in i.uses

    def test_jr_uses_target_register(self):
        assert RA in inst("jr $ra").uses

    def test_nop_has_empty_def_use(self):
        assert nop().defs == frozenset()
        assert nop().uses == frozenset()

    def test_address_register_none_for_alu(self):
        assert inst("addu $t0, $t1, $t2").base is None


class TestValueSemantics:
    def test_equality(self):
        assert inst("addu $t0, $t1, $t2") == inst("addu $t0, $t1, $t2")
        assert inst("addu $t0, $t1, $t2") != inst("addu $t0, $t1, $t3")

    def test_hashable(self):
        assert len({inst("nop"), nop()}) == 1

    def test_str_is_disassembly(self):
        assert str(inst("lw $t3, 100($t5)")) == "lw $t3, 100($t5)"
