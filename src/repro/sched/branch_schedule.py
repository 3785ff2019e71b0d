"""The delay-slot insertion procedure of Section 3.1.

For an architecture with ``b`` branch delay slots, each CTI gets:

1. ``r`` slots filled with instructions hoisted from before the CTI —
   limited by the data dependences of its condition/target registers
   (step 1+2 of the paper's procedure; our canonical code has no compiler
   noops, so the dependence analysis subsumes step 1);
2. a static prediction: backward branches and unconditional jumps are
   predicted taken, forward branches not-taken (step 3);
3. ``s = b - r`` remaining slots: for predicted-taken CTIs they hold
   *replicated* instructions from the target path (code growth ``s``); for
   predicted-not-taken CTIs they hold the sequential instructions already
   in place (no growth); for register-indirect jumps they hold noops
   (growth ``s``, and nothing can be skipped at the target) — step 4.
   :class:`~repro.sched.translation.TranslationFile` lays the grown code
   out and reports its size.

:func:`schedule_ctis` returns one :class:`CtiSchedule` per CTI, read from
the slot-independent facts :class:`~repro.trace.compiled.CompiledProgram`
lowers once (hoist limit, prediction, indirect flag), so it works on any
lowering; :class:`~repro.sched.translation.TranslationFile` holds the same
split as arrays.  Both are tested against the instruction-level procedure
in ``tests/sched/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import ScheduleError
from repro.trace.compiled import BlockKind, CompiledProgram

__all__ = ["CtiSchedule", "schedule_ctis", "fill_statistics"]


@dataclass(frozen=True)
class CtiSchedule:
    """Delay-slot schedule of one block's terminating CTI.

    Attributes:
        block_id: Block id in the compiled program.
        r: Slots filled from before the CTI (always useful).
        s: Remaining slots (``b - r``).
        predicted_taken: Static prediction (True for backward conditionals
            and all direct jumps/calls; also True for register-indirect
            CTIs, which always transfer control).
        indirect: Register-indirect CTI — its ``s`` slots are noops.
    """

    block_id: int
    r: int
    s: int
    predicted_taken: bool
    indirect: bool


def schedule_ctis(compiled: CompiledProgram, slots: int) -> Dict[int, CtiSchedule]:
    """Schedule every terminating CTI for ``slots`` branch delay slots.

    Returns a mapping from block id to its schedule; blocks without a
    terminating CTI are absent.  Works on any lowering, one rebuilt from
    its bundle included: ``r`` is ``min(slots, hoist_limit)``, and the
    hoist limits already hold step 1's unfillable jumps.
    """
    if slots < 0:
        raise ScheduleError(f"number of delay slots must be >= 0, got {slots}")
    hoist_limits = compiled.hoist_limits.tolist()
    predicted_taken = compiled.predicted_taken.tolist()
    indirect = compiled.indirect.tolist()
    schedules: Dict[int, CtiSchedule] = {}
    for block_id in np.flatnonzero(compiled.kinds != BlockKind.FALLTHROUGH).tolist():
        r = min(slots, hoist_limits[block_id])
        schedules[block_id] = CtiSchedule(
            block_id,
            r=r,
            s=slots - r,
            predicted_taken=predicted_taken[block_id],
            indirect=indirect[block_id],
        )
    return schedules


def fill_statistics(schedules: Dict[int, CtiSchedule], slots: int) -> Dict[str, float]:
    """Static fill-rate aggregates the paper quotes in Section 3.1.

    Returns (all as fractions, not percent):

    * ``first_slot_filled`` — CTIs whose first delay slot is filled from
      before the CTI (the paper measured 0.54);
    * ``first_slot_filled_taken`` — the same among predicted-taken CTIs
      (the paper measured 0.52);
    * ``slots_from_before`` — fraction of all delay slots filled from
      before (the paper cites 0.5-0.8);
    * ``predicted_taken`` — fraction of CTIs statically predicted taken
      (the paper measured ~0.60);
    * ``indirect`` — fraction of CTIs that are register-indirect (~0.10).
    """
    if slots <= 0:
        raise ScheduleError("fill statistics need at least one delay slot")
    if not schedules:
        raise ScheduleError("no CTIs to analyse")
    all_scheds = list(schedules.values())
    taken = [s for s in all_scheds if s.predicted_taken]
    return {
        "first_slot_filled": float(np.mean([s.r >= 1 for s in all_scheds])),
        "first_slot_filled_taken": float(np.mean([s.r >= 1 for s in taken]))
        if taken
        else 0.0,
        "slots_from_before": float(np.mean([s.r / slots for s in all_scheds])),
        "predicted_taken": len(taken) / len(all_scheds),
        "indirect": float(np.mean([s.indirect for s in all_scheds])),
    }
