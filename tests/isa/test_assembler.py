"""Assembler and disassembler tests, including round-trip properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.opcodes import OPCODE_TABLE, Opcode, OperandFormat
from repro.isa.registers import Register
from tests.isa.assembler import AssemblyError, assemble, assemble_block, parse_instruction
from tests.isa.disassembler import disassemble, disassemble_program


class TestParseInstruction:
    def test_paper_fragment(self):
        # The exact fragment from Section 3.2 of the paper.
        block = assemble_block(
            """
            subu r5, r5, r4
            lw   r3, 100(r5)
            addu r4, r3, r2
            """
        )
        assert [i.opcode for i in block] == [Opcode.SUBU, Opcode.LW, Opcode.ADDU]
        assert block[1].offset == 100
        assert block[1].base == Register(5)

    def test_comments_and_blanks_ignored(self):
        block = assemble_block("nop  # comment\n\n  # whole-line comment\nnop")
        assert len(block) == 2

    def test_negative_offset(self):
        assert parse_instruction("lw $t0, -8($sp)").offset == -8

    def test_hex_immediate(self):
        assert parse_instruction("addiu $t0, $t0, 0x10").imm == 16

    def test_wrong_arity_rejected(self):
        with pytest.raises(AssemblyError):
            parse_instruction("addu $t0, $t1")

    def test_unknown_opcode_rejected(self):
        with pytest.raises(AssemblyError):
            parse_instruction("frobnicate $t0")

    def test_bad_memory_operand_rejected(self):
        with pytest.raises(AssemblyError):
            parse_instruction("lw $t0, 4[$sp]")

    def test_empty_line_rejected(self):
        with pytest.raises(AssemblyError):
            parse_instruction("   # nothing")

    def test_label_in_block_rejected(self):
        with pytest.raises(AssemblyError):
            assemble_block("loop:\nnop")


class TestAssembleListing:
    LISTING = """
    entry:
        addiu $sp, $sp, -16
        jal   work
    after:
        lw    $v0, 0($sp)
        jr    $ra
    work:
        addu  $v0, $zero, $zero
        jr    $ra
    """

    def test_sections(self):
        sections = assemble(self.LISTING)
        labels = [label for label, _ in sections]
        assert labels == ["entry", "after", "work"]

    def test_section_contents(self):
        sections = dict(assemble(self.LISTING))
        assert len(sections["entry"]) == 2
        assert sections["entry"][1].target == "work"

    def test_unlabelled_preamble(self):
        sections = assemble("nop\nstart:\nnop")
        assert sections[0][0] is None
        assert sections[1][0] == "start"

    def test_empty_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble(" :\nnop")


def _operand_strategy(fmt):
    reg = st.integers(min_value=0, max_value=31).map(lambda n: f"${n}")
    imm = st.integers(min_value=-32768, max_value=32767)
    label = st.sampled_from(["L1", "L2", "loop", "exit"])
    if fmt is OperandFormat.THREE_REG:
        return st.tuples(reg, reg, reg).map(lambda t: f"{t[0]}, {t[1]}, {t[2]}")
    if fmt is OperandFormat.TWO_REG_IMM:
        return st.tuples(reg, reg, imm).map(lambda t: f"{t[0]}, {t[1]}, {t[2]}")
    if fmt is OperandFormat.ONE_REG_IMM:
        return st.tuples(reg, imm).map(lambda t: f"{t[0]}, {t[1]}")
    if fmt is OperandFormat.MEM:
        return st.tuples(reg, imm, reg).map(lambda t: f"{t[0]}, {t[1]}({t[2]})")
    if fmt is OperandFormat.BRANCH_TWO:
        return st.tuples(reg, reg, label).map(lambda t: f"{t[0]}, {t[1]}, {t[2]}")
    if fmt is OperandFormat.BRANCH_ONE:
        return st.tuples(reg, label).map(lambda t: f"{t[0]}, {t[1]}")
    if fmt is OperandFormat.TARGET:
        return label
    if fmt is OperandFormat.ONE_REG:
        return reg
    if fmt is OperandFormat.REG_TARGET:
        return st.tuples(reg, reg).map(lambda t: f"{t[0]}, {t[1]}")
    return st.just("")


@st.composite
def random_instruction_text(draw):
    opcode = draw(st.sampled_from(sorted(OPCODE_TABLE, key=lambda o: o.value)))
    operands = draw(_operand_strategy(OPCODE_TABLE[opcode].fmt))
    return f"{opcode.value} {operands}".strip()


class TestRoundTrip:
    @given(random_instruction_text())
    def test_assemble_disassemble_roundtrip(self, text):
        first = parse_instruction(text)
        second = parse_instruction(disassemble(first))
        assert first == second

    def test_program_roundtrip(self):
        listing = "entry:\n    addiu $sp, $sp, -8\n    jr $ra"
        sections = assemble(listing)
        assert assemble(disassemble_program(sections)) == sections
