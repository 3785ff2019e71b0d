"""Basic blocks of canonical (delay-slot-free) code."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.isa.instruction import Instruction

__all__ = ["BasicBlock"]


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
          fall-through; an unconditional direct jump needs a taken target;
          a register-indirect jump has no taken target; ``taken_bias``
          must be a probability.

        These are the block-local checks of
        :meth:`~repro.program.columns.ProgramColumns.validate`, run on
        this block's columns.
        """
        from repro.program.cfg import Procedure
        from repro.program.columns import ProgramColumns

        ProgramColumns.from_procedures([Procedure(name="", blocks=[self])]).validate_blocks()
