"""The :class:`Instruction` value object.

An instruction records its opcode, register operands, immediate, and (for
CTIs) a symbolic target label.  It is the read view of one row of a
program's columns (:class:`~repro.program.columns.ProgramColumns`): the
synthesizer writes rows, not instructions, and a block decodes its
instructions only when they are read.  Hand-built programs (tests,
examples) are written as instructions and reach the same columns through
one adapter.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Optional, Tuple

from repro.isa.opcodes import INFO_BY_VALUE, Opcode, OpcodeKind, OpcodeInfo
from repro.isa.registers import Register

__all__ = ["Instruction", "CTI_KINDS", "KIND_BY_VALUE"]

#: Each opcode's kind, keyed by mnemonic (``opcode._value_``; see
#: :data:`~repro.isa.opcodes.INFO_BY_VALUE` for why not the enum).
KIND_BY_VALUE = {value: info.kind for value, info in INFO_BY_VALUE.items()}

#: The kinds of control-transfer instructions (the paper's CTIs).  A tuple:
#: membership is identity tests, where a set would hash the enum.
CTI_KINDS = (OpcodeKind.BRANCH, OpcodeKind.JUMP, OpcodeKind.JUMP_REGISTER)


_FIELDS = ("opcode", "dest", "sources", "imm", "base", "offset", "target")


class Instruction:
    """One machine instruction, an immutable value.

    Operand roles by format:

    * ALU three-register: ``dest`` and two ``sources``.
    * ALU immediate: ``dest``, one source, ``imm``.
    * Load: ``dest`` is the loaded register, ``base`` + ``offset`` form the
      address.
    * Store: ``sources[0]`` is the stored register, ``base`` + ``offset``
      form the address.
    * Branch: ``sources`` are the compared registers, ``target`` the label.
    * Jump: ``target``; ``jr``/``jalr`` use ``base`` as the target register.

    It behaves as a frozen dataclass would: equal fields make equal,
    equally hashed instructions, and assigning or deleting a field raises
    :class:`dataclasses.FrozenInstanceError`.  The fields are slots that
    ``__init__`` writes through their descriptors, since a synthesized
    suite builds hundreds of thousands of instructions and a frozen
    dataclass pays ``object.__setattr__`` and a ``__dict__`` for each.
    """

    __slots__ = _FIELDS

    opcode: Opcode
    dest: Optional[Register]
    sources: Tuple[Register, ...]
    imm: Optional[int]
    base: Optional[Register]
    offset: int
    target: Optional[str]

    def __init__(
        self,
        opcode: Opcode,
        dest: Optional[Register] = None,
        sources: Tuple[Register, ...] = (),
        imm: Optional[int] = None,
        base: Optional[Register] = None,
        offset: int = 0,
        target: Optional[str] = None,
    ) -> None:
        _set_opcode(self, opcode)
        _set_dest(self, dest)
        _set_sources(self, sources)
        _set_imm(self, imm)
        _set_base(self, base)
        _set_offset(self, offset)
        _set_target(self, target)

    def _values(self) -> tuple:
        return (
            self.opcode, self.dest, self.sources, self.imm, self.base,
            self.offset, self.target,
        )

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(_FIELDS, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # The default slot-state restore assigns through __setattr__.
        return (type(self), self._values())

    @property
    def info(self) -> OpcodeInfo:
        """Static opcode properties."""
        return INFO_BY_VALUE[self.opcode._value_]

    # -- category predicates -------------------------------------------------

    @property
    def is_cti(self) -> bool:
        """True for any control-transfer instruction (the paper's CTI)."""
        return KIND_BY_VALUE[self.opcode._value_] in CTI_KINDS


_set_opcode, _set_dest, _set_sources, _set_imm, _set_base, _set_offset, _set_target = (
    getattr(Instruction, name).__set__ for name in _FIELDS
)
