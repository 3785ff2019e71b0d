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

:func:`schedule_ctis` runs the procedure block by block over the
instruction lists and returns one :class:`CtiSchedule` per CTI.  It is the
reference definition: :class:`~repro.sched.translation.TranslationFile`
computes the same split for every slot count from the slot-independent
facts :class:`~repro.trace.compiled.CompiledProgram` lowers once (hoist
limit, prediction, indirect flag), and is tested against this function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import ScheduleError
from repro.program.dependence import cti_hoist_distance
from repro.trace.compiled import BlockKind, CompiledProgram, unfillable_jumps

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
    terminating CTI are absent.  Needs the instruction lists (a
    :class:`~repro.trace.compiled.CompiledProgram` built from its
    program).
    """
    if slots < 0:
        raise ScheduleError(f"number of delay slots must be >= 0, got {slots}")
    schedules: Dict[int, CtiSchedule] = {}
    if slots == 0:
        # Zero-slot architecture: the canonical code *is* the translation.
        for block_id, kind in enumerate(compiled.kinds):
            if kind != BlockKind.FALLTHROUGH:
                schedules[block_id] = CtiSchedule(
                    block_id,
                    r=0,
                    s=0,
                    predicted_taken=_predicted_taken(compiled, block_id),
                    indirect=_is_indirect(compiled, block_id),
                )
        return schedules

    # Step 1: a calibrated share of direct jumps/calls cannot fill their
    # first slot from before (see repro.trace.compiled.JUMP_UNFILLABLE_FRAC).
    unfillable = unfillable_jumps(np.arange(len(compiled)))
    for block_id, kind in enumerate(compiled.kinds):
        if kind == BlockKind.FALLTHROUGH:
            continue
        if kind in (BlockKind.JUMP, BlockKind.CALL) and unfillable[block_id]:
            hoist = 0
        else:
            instructions = compiled.block_instructions(block_id)
            hoist = cti_hoist_distance(instructions)
        r = min(slots, hoist)
        schedules[block_id] = CtiSchedule(
            block_id,
            r=r,
            s=slots - r,
            predicted_taken=_predicted_taken(compiled, block_id),
            indirect=_is_indirect(compiled, block_id),
        )
    return schedules


def _is_indirect(compiled: CompiledProgram, block_id: int) -> bool:
    return compiled.kinds[block_id] in (
        BlockKind.RETURN,
        BlockKind.COMPUTED_GOTO,
        BlockKind.INDIRECT_CALL,
    )


def _predicted_taken(compiled: CompiledProgram, block_id: int) -> bool:
    """Step 3: backward branches and unconditional CTIs predicted taken."""
    kind = compiled.kinds[block_id]
    if kind != BlockKind.CONDITIONAL:
        return True  # jumps, calls, returns, computed gotos always transfer
    target = compiled.taken_ids[block_id]
    # Backward edge: target at or before this block in layout order.
    return bool(target >= 0 and target <= block_id)


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
