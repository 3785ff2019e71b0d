"""Instruction-level categories and def/use sets.

The runtime reads a program's columns: each row's kind from the opcode
table and its registers into bitmasks (:mod:`repro.program.dependence`);
these per-instruction forms are what the tests and the instruction-level
oracles (``tests/sched/oracles.py``) ask instead.
"""

from typing import FrozenSet

from repro.isa.instruction import KIND_BY_VALUE, Instruction
from repro.isa.opcodes import Opcode, OpcodeKind
from repro.isa.registers import RA, ZERO, Register


def kind(inst: Instruction) -> OpcodeKind:
    return KIND_BY_VALUE[inst.opcode._value_]


def is_load(inst: Instruction) -> bool:
    return kind(inst) is OpcodeKind.LOAD


def is_conditional_branch(inst: Instruction) -> bool:
    return kind(inst) is OpcodeKind.BRANCH


def is_memory(inst: Instruction) -> bool:
    """True for any instruction that issues a data reference."""
    return kind(inst) in (OpcodeKind.LOAD, OpcodeKind.STORE)


def is_register_indirect(inst: Instruction) -> bool:
    """True for ``jr``/``jalr``, whose target is unknowable statically.

    Delay slots of these CTIs can only be filled from before the CTI or
    with noops (Section 3.1, step 4 of the insertion procedure).
    """
    return kind(inst) is OpcodeKind.JUMP_REGISTER


def defs(inst: Instruction) -> FrozenSet[Register]:
    """Registers written by ``inst``.

    Writes to ``$zero`` are discarded by the hardware, so they are not
    reported as definitions; this keeps false dependencies out of the
    scheduler.
    """
    written = set()
    if inst.dest is not None and inst.dest != ZERO:
        written.add(inst.dest)
    if inst.info.links:
        written.add(inst.dest if inst.dest is not None else RA)
    return frozenset(written)


def uses(inst: Instruction) -> FrozenSet[Register]:
    """Registers read by ``inst`` (``$zero`` excluded)."""
    read = set(inst.sources)
    if inst.base is not None:
        read.add(inst.base)
    read.discard(ZERO)
    return frozenset(read)


def nop() -> Instruction:
    """An architectural no-op."""
    return Instruction(Opcode.NOP)
