"""Within-block data-dependence analysis, over a program's columns.

Both delay-slot schedulers ask the same kinds of questions:

* the branch scheduler (Section 3.1, step 2) needs to know how far the
  terminating CTI can be hoisted over its predecessors — limited by the
  instructions that define the CTI's condition/target registers;
* the load scheduler (Section 3.2) needs, for each load, the number of
  *independent* instructions around it that could fill its delay slots, and
  the distance to the first consumer of its result.

Dependences considered are true (flow) dependences through registers plus a
memory ordering constraint: a load may move past a store only when their
addresses provably differ.  The paper's "best static scheduling" assumes
*perfect memory disambiguation*, which we model by comparing (base register,
offset) pairs symbolically — identical pairs conflict, anything else is
assumed disjoint.  Output dependences through registers are ignored for the
CTI hoist (the CTI writes at most the link register) and respected where
they matter in the load analysis.

Every answer is computed for a whole program at once from its
:class:`~repro.program.columns.ProgramColumns`: each instruction's
registers become bitmasks (bit ``n`` is register ``n``,
:func:`register_masks`), so a dependence test is an integer AND over
arrays.  The CTI hoist is a segmented maximum over blocker positions
(:func:`hoist_distances`); each load's slack looks at most
:data:`EPSILON_CAP` instructions back and ahead, so it is that many
shifted compares in each direction (:func:`load_epsilons`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.isa.registers import RA
from repro.program.columns import (
    IS_BARRIER,
    IS_CTI,
    KIND_OF,
    LINKS,
    LOAD,
    STORE,
    ProgramColumns,
)

__all__ = ["EPSILON_CAP", "hoist_distances", "load_epsilons", "register_masks"]

#: Slack beyond this many cycles never matters (the paper studies at most
#: three load delay slots); epsilon values are capped here for histograms.
EPSILON_CAP = 8

#: The stable base registers ``$gp``/``$sp``/``$fp`` as a bitmask.
_STABLE_BASES = (1 << 28) | (1 << 29) | (1 << 30)


def _bits(registers: np.ndarray) -> np.ndarray:
    """``1 << register`` per row, 0 where there is no register."""
    return np.where(registers >= 0, np.left_shift(1, np.maximum(registers, 0)), 0)


def register_masks(columns: ProgramColumns) -> Tuple[np.ndarray, np.ndarray]:
    """Each instruction's ``(defs, uses)`` as int64 register bitmasks.

    An instruction writes its destination (never ``$zero``) and, if it
    links, its destination or else ``$ra``; it reads its sources and its
    base, and a read of ``$zero`` is no dependence.
    """
    opcodes, dests, source0, source1, bases = columns.rows[:5]
    defs = np.where(dests > 0, _bits(dests), 0)
    links = LINKS[opcodes]
    defs[links] |= np.left_shift(1, np.where(dests >= 0, dests, RA.number)[links])
    uses = (_bits(source0) | _bits(source1) | _bits(bases)) & ~1
    return defs, uses


def hoist_distances(
    columns: ProgramColumns, defs: np.ndarray, uses: np.ndarray
) -> np.ndarray:
    """How many predecessors each block's terminating CTI can be hoisted over.

    This is the paper's ``r``: the number of instructions immediately
    before the CTI that (a) do not define a register the CTI reads and
    (b) are safe to execute in a delay slot — i.e. are not CTIs or
    syscalls themselves.  Only the CTI moves; the other instructions keep
    their relative order (Section 3.1, step 2: "No attempt is made to
    rearrange the ordering of any other instructions").  0 for a block
    that does not end in a CTI.
    """
    starts = columns.starts
    lengths = np.diff(starts)
    kinds = KIND_OF[columns.rows[0]]
    hoist = np.zeros(len(lengths), dtype=np.int64)
    if not len(kinds):
        return hoist
    last = np.maximum(starts[1:] - 1, 0)
    block_of_row = np.repeat(np.arange(len(lengths)), lengths)
    # A blocker is a barrier or a writer of a register the block's last
    # instruction reads; the run before the CTI ends at the last blocker.
    blocker = IS_BARRIER[kinds] | (defs & uses[last][block_of_row] != 0)
    latest = np.maximum.accumulate(np.where(blocker, np.arange(len(kinds)), -1))
    movable = (lengths > 1) & IS_CTI[kinds[last]]
    before = last[movable] - 1
    hoist[movable] = before - np.maximum(latest[before], starts[:-1][movable] - 1)
    return hoist


def load_epsilons(
    columns: ProgramColumns, defs: np.ndarray, uses: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every load's row and its (static, dynamic) slack ``epsilon = c + d``.

    ``c`` counts the instructions before the load that could fill its
    delay slots, ``d`` those between it and the first consumer of its
    result (when a later instruction overwrites the result first, or
    none reads it, ``d`` runs to the end of the window).

    Static: ``c`` is the run, up to a barrier, of instructions that write
    no register the load reads and store to no identical symbolic address,
    and ``d`` is truncated at the block end (what within-block
    compile-time scheduling can use).  Dynamic: ``c`` is the distance to
    the last writer of the load's base register, where stable bases
    (``$gp``/``$sp``/``$fp``, written at program or procedure entry),
    bases written in an earlier block and loads without a base are far
    away; ``d`` looks :data:`EPSILON_CAP` instructions ahead.  Both sums
    are capped at :data:`EPSILON_CAP`.
    """
    opcodes, _, _, _, bases, offsets = columns.rows[:6]
    kinds = KIND_OF[opcodes]
    lengths = np.diff(columns.starts)
    loads = np.flatnonzero(kinds == LOAD)
    block = np.repeat(np.arange(len(lengths)), lengths)[loads]
    first = columns.starts[block]
    last = columns.starts[block + 1] - 1
    load_base = bases[loads]
    load_offset = offsets[loads]
    needed = uses[loads]
    produced = defs[loads]
    base_bit = _bits(load_base)
    far_base = (load_base < 0) | (base_bit & _STABLE_BASES != 0)

    c_static = np.zeros(len(loads), dtype=np.int64)
    c_dynamic = np.full(len(loads), EPSILON_CAP, dtype=np.int64)
    open_static = np.ones(len(loads), dtype=np.bool_)
    open_dynamic = ~far_base
    d_static = np.minimum(last - loads, EPSILON_CAP)
    d_dynamic = np.full(len(loads), EPSILON_CAP, dtype=np.int64)
    open_ahead = produced != 0
    for k in range(1, EPSILON_CAP + 1):
        # k instructions back: a writer of the base ends the dynamic c,
        # and a barrier, a writer of any register read or a conflicting
        # store ends the static run.
        row = loads - k
        inside = row >= first
        row = np.where(inside, row, 0)
        written = defs[row]
        open_static &= (
            inside
            & ~IS_BARRIER[kinds[row]]
            & (written & needed == 0)
            & ~(
                (kinds[row] == STORE)
                & (bases[row] == load_base)
                & (offsets[row] == load_offset)
            )
        )
        c_static += open_static
        found = open_dynamic & inside & (written & base_bit != 0)
        c_dynamic[found] = k - 1
        open_dynamic &= inside & ~found
        # k instructions ahead: the first reader of the result sets d; an
        # overwrite first leaves d at the window's end.
        row = loads + k
        inside = row <= last
        row = np.where(inside, row, 0)
        read = open_ahead & inside & (uses[row] & produced != 0)
        d_static[read] = k - 1
        d_dynamic[read] = k - 1
        open_ahead &= inside & ~read & (defs[row] & produced == 0)
    eps_static = np.minimum(c_static + d_static, EPSILON_CAP)
    eps_dynamic = np.minimum(c_dynamic + d_dynamic, EPSILON_CAP)
    return loads, eps_static, eps_dynamic
