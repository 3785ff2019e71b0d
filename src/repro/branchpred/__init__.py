"""Branch prediction hardware models.

The paper compares software delayed branches (see :mod:`repro.sched`)
against a hardware branch-target buffer: 256 entries (the largest SRAM
guaranteeing single-cycle access at the target cycle time), each holding an
address tag, a target address, and a 2-bit saturating counter using the
scheme of Lee & Smith [LS84].  A CTI loses ``b + 1`` cycles whenever it
misses the BTB or is mispredicted (the ``+1`` refills the BTB entry).
"""

from repro.branchpred.btb import BranchTargetBuffer, BTBStats
from repro.branchpred.streams import CtiStream, WindowedCtiStream, cti_stream

__all__ = [
    "BranchTargetBuffer",
    "BTBStats",
    "CtiStream",
    "WindowedCtiStream",
    "cti_stream",
]
