"""A small two-pass assembler for the MIPS-like subset.

Tests build blocks and programs from text with it, in the same code
fragments the paper uses, e.g.::

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

from repro.errors import ReproError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_TABLE, Opcode, OpcodeKind, OperandFormat
from repro.isa.registers import REGISTER_COUNT, Register

__all__ = [
    "AssemblyError",
    "assemble",
    "assemble_block",
    "parse_instruction",
    "parse_opcode",
    "parse_register",
]


class AssemblyError(ReproError):
    """Assembly-language text could not be parsed into instructions."""


_MEM_OPERAND = re.compile(r"^(-?\w+)\s*\(\s*(\$?\w+)\s*\)$")
_BY_MNEMONIC = {op.value: op for op in Opcode}
_BY_NAME = {Register(n).name[1:]: Register(n) for n in range(REGISTER_COUNT)}


def parse_register(text: str) -> Register:
    """Parse a register name such as ``$t0``, ``$4``, or ``r4``.

    Accepts the conventional names, ``$N`` numeric form, and the bare ``rN``
    form the paper's code fragments use.

    >>> parse_register("$sp").number
    29
    >>> parse_register("r3").number
    3
    """
    original = text
    text = text.strip().lower()
    if text.startswith("$"):
        text = text[1:]
    elif text.startswith("r") and text[1:].isdigit():
        text = text[1:]
    if text.isdigit():
        return Register(int(text))
    try:
        return _BY_NAME[text]
    except KeyError:
        raise ValueError(f"unknown register name: {original!r}") from None


def parse_opcode(mnemonic: str) -> Opcode:
    """Parse a mnemonic string into an :class:`Opcode`.

    >>> parse_opcode("addu") is Opcode.ADDU
    True
    """
    try:
        return _BY_MNEMONIC[mnemonic.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown opcode mnemonic: {mnemonic!r}") from None


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
    fmt = OPCODE_TABLE[opcode].fmt
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
        if OPCODE_TABLE[opcode].kind is OpcodeKind.LOAD:
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
