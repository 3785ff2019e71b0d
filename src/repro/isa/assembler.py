"""A small two-pass assembler for the MIPS-like subset.

This exists for tests and documentation: it lets behaviour be specified
with the same code fragments the paper uses, e.g.::

    subu $t5, $t5, $t4
    lw   $t3, 100($t5)
    addu $t4, $t3, $t2

:func:`assemble` parses a full listing with ``label:`` lines into a list of
``(label, [Instruction])`` sections; :func:`assemble_block` parses a single
straight-line fragment.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import AssemblyError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, OperandFormat, opcode_info, parse_opcode
from repro.isa.registers import Register, parse_register

__all__ = ["assemble", "assemble_block", "parse_instruction"]

_MEM_OPERAND = re.compile(r"^(-?\w+)\s*\(\s*(\$?\w+)\s*\)$")


def _parse_imm(text: str) -> int:
    text = text.strip()
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblyError(f"invalid immediate: {text!r}") from None


def _reg(text: str) -> Register:
    try:
        return parse_register(text)
    except ValueError as exc:
        raise AssemblyError(str(exc)) from None


def parse_instruction(line: str) -> Instruction:
    """Parse one assembly line (no label) into an :class:`Instruction`.

    >>> parse_instruction("addu $t4, $t3, $t2").opcode.value
    'addu'
    >>> parse_instruction("lw $t3, 100($t5)").offset
    100
    """
    line = line.split("#", 1)[0].strip()
    if not line:
        raise AssemblyError("empty instruction line")
    parts = line.split(None, 1)
    try:
        opcode = parse_opcode(parts[0])
    except ValueError as exc:
        raise AssemblyError(str(exc)) from None
    operand_text = parts[1] if len(parts) > 1 else ""
    operands = [p.strip() for p in operand_text.split(",")] if operand_text else []
    fmt = opcode_info(opcode).fmt
    return _build(opcode, fmt, operands, line)


def _build(
    opcode: Opcode, fmt: OperandFormat, ops: List[str], line: str
) -> Instruction:
    def need(count: int) -> None:
        if len(ops) != count:
            raise AssemblyError(
                f"{opcode.value} expects {count} operand(s) ({fmt.value!r}): {line!r}"
            )

    if fmt is OperandFormat.THREE_REG:
        need(3)
        return Instruction(opcode, dest=_reg(ops[0]), sources=(_reg(ops[1]), _reg(ops[2])))
    if fmt is OperandFormat.TWO_REG_IMM:
        need(3)
        return Instruction(opcode, dest=_reg(ops[0]), sources=(_reg(ops[1]),), imm=_parse_imm(ops[2]))
    if fmt is OperandFormat.ONE_REG_IMM:
        need(2)
        return Instruction(opcode, dest=_reg(ops[0]), imm=_parse_imm(ops[1]))
    if fmt is OperandFormat.MEM:
        need(2)
        match = _MEM_OPERAND.match(ops[1])
        if not match:
            raise AssemblyError(f"invalid memory operand {ops[1]!r} in {line!r}")
        offset, base = _parse_imm(match.group(1)), _reg(match.group(2))
        if opcode_info(opcode).kind.value == "load":
            return Instruction(opcode, dest=_reg(ops[0]), base=base, offset=offset)
        return Instruction(opcode, sources=(_reg(ops[0]),), base=base, offset=offset)
    if fmt is OperandFormat.BRANCH_TWO:
        need(3)
        return Instruction(opcode, sources=(_reg(ops[0]), _reg(ops[1])), target=ops[2])
    if fmt is OperandFormat.BRANCH_ONE:
        need(2)
        return Instruction(opcode, sources=(_reg(ops[0]),), target=ops[1])
    if fmt is OperandFormat.TARGET:
        need(1)
        return Instruction(opcode, target=ops[0])
    if fmt is OperandFormat.ONE_REG:
        need(1)
        return Instruction(opcode, base=_reg(ops[0]))
    if fmt is OperandFormat.REG_TARGET:
        need(2)
        return Instruction(opcode, dest=_reg(ops[0]), base=_reg(ops[1]))
    if fmt is OperandFormat.NONE:
        need(0)
        return Instruction(opcode)
    raise AssemblyError(f"unhandled operand format {fmt} for {line!r}")  # pragma: no cover


def assemble_block(text: str) -> List[Instruction]:
    """Assemble a straight-line fragment (no labels) into instructions.

    Blank lines and ``#`` comments are ignored.
    """
    instructions = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(":"):
            raise AssemblyError(
                f"label {line!r} not allowed in a straight-line block; use assemble()"
            )
        instructions.append(parse_instruction(line))
    return instructions


def assemble(text: str) -> List[Tuple[Optional[str], List[Instruction]]]:
    """Assemble a labelled listing into ``(label, instructions)`` sections.

    A section starts at each ``label:`` line; instructions before the first
    label form a section with label ``None``.  CTI targets are left symbolic
    — a block names its taken target, and
    :class:`~repro.trace.compiled.CompiledProgram` resolves names to block
    ids and canonical addresses.
    """
    sections: List[Tuple[Optional[str], List[Instruction]]] = []
    current_label: Optional[str] = None
    current: List[Instruction] = []

    def flush() -> None:
        nonlocal current
        if current or current_label is not None:
            sections.append((current_label, current))
        current = []

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(":"):
            flush()
            current_label = line[:-1].strip()
            if not current_label:
                raise AssemblyError(f"empty label in line {raw!r}")
            continue
        current.append(parse_instruction(line))
    flush()
    return sections
