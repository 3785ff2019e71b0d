"""Program representation: basic blocks, procedures, columns, dependences.

The paper's methodology operates on *canonical* object code — code with no
delay slots at all ("a translation file for an architecture with zero delay
cycles ... produced by removing all noop instructions that appear after
CTIs").  This package represents that canonical form:

* a :class:`~repro.program.basic_block.BasicBlock` is straight-line code
  whose final instruction may be a CTI;
* a :class:`~repro.program.cfg.Program` groups blocks into procedures
  with fall-through/taken/call edges;
* :class:`~repro.program.columns.ProgramColumns` is the same program as
  flat columns, one row per instruction: what the synthesizer writes and
  what the lowering reads and validates;
* :mod:`~repro.program.dependence` answers the def/use questions that the
  branch and load delay-slot schedulers ask, for a whole program at once
  from its columns.
"""

from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.program.columns import ProgramColumns

__all__ = [
    "BasicBlock",
    "Procedure",
    "Program",
    "ProgramColumns",
]
