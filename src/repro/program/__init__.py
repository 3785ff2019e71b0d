"""Program representation: basic blocks, procedures, dependences.

The paper's methodology operates on *canonical* object code — code with no
delay slots at all ("a translation file for an architecture with zero delay
cycles ... produced by removing all noop instructions that appear after
CTIs").  This package represents that canonical form:

* a :class:`~repro.program.basic_block.BasicBlock` is straight-line code
  whose final instruction may be a CTI;
* a :class:`~repro.program.cfg.Program` groups blocks into procedures
  with fall-through/taken/call edges;
* :mod:`~repro.program.dependence` answers the def/use questions that the
  branch and load delay-slot schedulers ask.
"""

from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.program.dependence import (
    cti_hoist_distance,
    flow_dependences,
    independent_prefix_length,
)

__all__ = [
    "BasicBlock",
    "Procedure",
    "Program",
    "cti_hoist_distance",
    "flow_dependences",
    "independent_prefix_length",
]
