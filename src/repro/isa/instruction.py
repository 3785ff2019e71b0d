"""The :class:`Instruction` value object.

An instruction records its opcode, register operands, immediate, and (for
CTIs) a symbolic target label.  Def/use sets are derived properties; the
delay-slot scheduler and the epsilon analysis are built entirely on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional, Tuple

from repro.isa.opcodes import INFO_BY_VALUE, Opcode, OpcodeKind, OpcodeInfo
from repro.isa.registers import Register, RA, ZERO

__all__ = ["Instruction", "nop", "CTI_KINDS"]

# Each opcode's kind, keyed by mnemonic (``opcode._value_``; see
# :data:`~repro.isa.opcodes.INFO_BY_VALUE` for why not the enum).
_KIND = {value: info.kind for value, info in INFO_BY_VALUE.items()}

#: The kinds of control-transfer instructions (the paper's CTIs).  A tuple:
#: membership is identity tests, where a set would hash the enum.
CTI_KINDS = (OpcodeKind.BRANCH, OpcodeKind.JUMP, OpcodeKind.JUMP_REGISTER)

_LOAD = OpcodeKind.LOAD
_STORE = OpcodeKind.STORE
_BRANCH = OpcodeKind.BRANCH
_JUMP = OpcodeKind.JUMP
_JUMP_REGISTER = OpcodeKind.JUMP_REGISTER
_NOP = OpcodeKind.NOP


@dataclass(frozen=True)
class Instruction:
    """One machine instruction.

    Operand roles by format:

    * ALU three-register: ``dest`` and two ``sources``.
    * ALU immediate: ``dest``, one source, ``imm``.
    * Load: ``dest`` is the loaded register, ``base`` + ``offset`` form the
      address.
    * Store: ``sources[0]`` is the stored register, ``base`` + ``offset``
      form the address.
    * Branch: ``sources`` are the compared registers, ``target`` the label.
    * Jump: ``target``; ``jr``/``jalr`` use ``base`` as the target register.
    """

    opcode: Opcode
    dest: Optional[Register] = None
    sources: Tuple[Register, ...] = ()
    imm: Optional[int] = None
    base: Optional[Register] = None
    offset: int = 0
    target: Optional[str] = None

    @property
    def info(self) -> OpcodeInfo:
        """Static opcode properties."""
        return INFO_BY_VALUE[self.opcode._value_]

    @property
    def kind(self) -> OpcodeKind:
        return _KIND[self.opcode._value_]

    # -- category predicates -------------------------------------------------

    @property
    def is_load(self) -> bool:
        return _KIND[self.opcode._value_] is _LOAD

    @property
    def is_store(self) -> bool:
        return _KIND[self.opcode._value_] is _STORE

    @property
    def is_memory(self) -> bool:
        """True for any instruction that issues a data reference."""
        kind = _KIND[self.opcode._value_]
        return kind is _LOAD or kind is _STORE

    @property
    def is_cti(self) -> bool:
        """True for any control-transfer instruction (the paper's CTI)."""
        return _KIND[self.opcode._value_] in CTI_KINDS

    @property
    def is_conditional_branch(self) -> bool:
        return _KIND[self.opcode._value_] is _BRANCH

    @property
    def is_register_indirect(self) -> bool:
        """True for ``jr``/``jalr``, whose target is unknowable statically.

        Delay slots of these CTIs can only be filled from before the CTI or
        with noops (Section 3.1, step 4 of the insertion procedure).
        """
        return _KIND[self.opcode._value_] is _JUMP_REGISTER

    @property
    def is_unconditional(self) -> bool:
        """True for CTIs that always transfer control."""
        kind = _KIND[self.opcode._value_]
        return kind is _JUMP or kind is _JUMP_REGISTER

    @property
    def is_nop(self) -> bool:
        return _KIND[self.opcode._value_] is _NOP

    # -- def/use -------------------------------------------------------------

    @property
    def defs(self) -> FrozenSet[Register]:
        """Registers written by this instruction.

        Writes to ``$zero`` are discarded by the hardware, so they are not
        reported as definitions; this keeps false dependencies out of the
        scheduler.
        """
        written = set()
        if self.dest is not None and not self.dest.is_zero:
            written.add(self.dest)
        if self.info.links:
            written.add(self.dest if self.dest is not None else RA)
        return frozenset(written)

    @property
    def uses(self) -> FrozenSet[Register]:
        """Registers read by this instruction (``$zero`` excluded)."""
        read = set(self.sources)
        if self.base is not None:
            read.add(self.base)
        read.discard(ZERO)
        return frozenset(read)

    @property
    def address_register(self) -> Optional[Register]:
        """The base register of a memory access, or None."""
        return self.base if self.is_memory else None

    def with_target(self, target: Optional[str]) -> "Instruction":
        """Return a copy with a different CTI target label."""
        return replace(self, target=target)

    def __str__(self) -> str:
        from repro.isa.disassembler import disassemble

        return disassemble(self)


def nop() -> Instruction:
    """Return an architectural no-op."""
    return Instruction(Opcode.NOP)
