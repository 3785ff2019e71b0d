"""Basic blocks of canonical (delay-slot-free) code."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.isa.instruction import CTI_KINDS, KIND_BY_VALUE, Instruction
from repro.isa.opcodes import OpcodeKind

__all__ = ["BasicBlock"]

_BRANCH = OpcodeKind.BRANCH
_JUMP = OpcodeKind.JUMP
_JUMP_REGISTER = OpcodeKind.JUMP_REGISTER


@dataclass
class BasicBlock:
    """Straight-line code whose final instruction may be a CTI.

    Attributes:
        name: Unique label of the block within its program.
        instructions: The block body.  Only the last instruction may be a
            CTI; this invariant is checked by :meth:`validate`.
        taken_target: Name of the block reached when the terminating CTI is
            taken.  ``None`` for fall-through-only blocks and for
            register-indirect jumps (whose target is dynamic).
        fallthrough: Name of the next sequential block, or ``None`` when the
            block ends in an unconditional CTI (or ends the program).
        taken_bias: Probability that the terminating conditional branch is
            taken at run time.  Irrelevant (and ignored) for blocks without
            a conditional branch.  This is the workload model's annotation;
            the executor draws outcomes from it.
        backward: True if the terminating branch jumps backwards (to a lower
            address) — the static predictor predicts backward branches
            taken, forward branches not-taken (Section 3.1, step 3).
        indirect_targets: For register-indirect CTIs that are not returns
            (``jalr`` indirect calls, ``jr`` computed gotos), the candidate
            destination block names the executor chooses among.  A plain
            ``jr $ra`` return leaves this empty; its destination comes from
            the call stack.
    """

    name: str
    instructions: List[Instruction] = field(default_factory=list)
    taken_target: Optional[str] = None
    fallthrough: Optional[str] = None
    taken_bias: float = 0.5
    backward: bool = False
    indirect_targets: List[str] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instruction]:
        """The terminating CTI, or None if the block only falls through."""
        if self.instructions and self.instructions[-1].is_cti:
            return self.instructions[-1]
        return None

    def __len__(self) -> int:
        return len(self.instructions)

    def validate(self) -> None:
        """Check block invariants; raise :class:`ConfigurationError` if broken.

        * only the final instruction may be a CTI;
        * a conditional terminator needs both a taken target and a
          fall-through; an unconditional direct jump needs a taken target
          and no fall-through; ``taken_bias`` must be a probability.
        """
        instructions = self.instructions
        for inst in instructions[:-1]:
            if KIND_BY_VALUE[inst.opcode._value_] in CTI_KINDS:
                raise ConfigurationError(
                    f"block {self.name!r}: CTI {inst.opcode.value} not in terminal position"
                )
        last = KIND_BY_VALUE[instructions[-1].opcode._value_] if instructions else None
        if last is _BRANCH:
            if self.taken_target is None or self.fallthrough is None:
                raise ConfigurationError(
                    f"block {self.name!r}: conditional branch needs both edges"
                )
        elif last is _JUMP_REGISTER:
            if self.taken_target is not None:
                raise ConfigurationError(
                    f"block {self.name!r}: register-indirect jump target "
                    "must be dynamic (taken_target=None)"
                )
        elif last is _JUMP:  # direct jump
            if self.taken_target is None:
                raise ConfigurationError(
                    f"block {self.name!r}: jump needs a taken target"
                )
        if not 0.0 <= self.taken_bias <= 1.0:
            raise ConfigurationError(
                f"block {self.name!r}: taken_bias {self.taken_bias} not in [0, 1]"
            )
