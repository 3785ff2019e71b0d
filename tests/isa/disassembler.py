"""Disassembler: the inverse of :mod:`tests.isa.assembler`.

Round-tripping (``assemble(disassemble(x)) == x``) is covered by
property-based tests; it keeps the two sides honest.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpcodeKind, OperandFormat

__all__ = ["disassemble", "disassemble_program"]


def disassemble(inst: Instruction) -> str:
    """Render one instruction as assembly text.

    >>> from tests.isa.assembler import parse_instruction
    >>> disassemble(parse_instruction("lw $t3, 100($t5)"))
    'lw $t3, 100($t5)'
    """
    fmt = inst.info.fmt
    name = inst.opcode.value
    if fmt is OperandFormat.THREE_REG:
        return f"{name} {inst.dest}, {inst.sources[0]}, {inst.sources[1]}"
    if fmt is OperandFormat.TWO_REG_IMM:
        return f"{name} {inst.dest}, {inst.sources[0]}, {inst.imm}"
    if fmt is OperandFormat.ONE_REG_IMM:
        return f"{name} {inst.dest}, {inst.imm}"
    if fmt is OperandFormat.MEM:
        reg = inst.dest if inst.info.kind is OpcodeKind.LOAD else inst.sources[0]
        return f"{name} {reg}, {inst.offset}({inst.base})"
    if fmt is OperandFormat.BRANCH_TWO:
        return f"{name} {inst.sources[0]}, {inst.sources[1]}, {inst.target}"
    if fmt is OperandFormat.BRANCH_ONE:
        return f"{name} {inst.sources[0]}, {inst.target}"
    if fmt is OperandFormat.TARGET:
        return f"{name} {inst.target}"
    if fmt is OperandFormat.ONE_REG:
        return f"{name} {inst.base}"
    if fmt is OperandFormat.REG_TARGET:
        return f"{name} {inst.dest}, {inst.base}"
    return name


def disassemble_program(
    sections: Iterable[Tuple[Optional[str], List[Instruction]]],
) -> str:
    """Render labelled sections back into a listing."""
    lines: List[str] = []
    for label, instructions in sections:
        if label is not None:
            lines.append(f"{label}:")
        lines.extend(f"    {disassemble(inst)}" for inst in instructions)
    return "\n".join(lines)
