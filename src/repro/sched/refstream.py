"""Reference-stream expansion and branch-delay accounting.

:func:`expand_istream` turns an execution trace plus a translation file
into the instruction reference stream of the translated code, following
Section 3.1's replay rules:

* a block's fetch run covers its translated length (which includes
  replicated target instructions and noop padding);
* when a predicted-taken CTI is taken, the target block's first ``s``
  instructions were already fetched as replicas, so the target's run
  starts ``s`` words in;
* when a predicted-not-taken branch is taken, ``s`` wrong-path fetches are
  made in the sequential block before control moves to the target.

:func:`branch_delay_stats` produces the Table 3 quantities: prediction
accuracy, wasted (squashed) cycles per CTI, and the resulting CPI increase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ScheduleError
from repro.sched.translation import TranslationFile
from repro.trace.compiled import BlockKind
from repro.trace.executor import ExecutionTrace
from repro.utils.units import WORD_BYTES, log2_int

__all__ = ["InstructionStream", "expand_istream", "BranchDelayStats", "branch_delay_stats"]


@dataclass
class InstructionStream:
    """A fetch stream as sequential runs: ``lengths[i]`` words at ``starts[i]``."""

    starts: np.ndarray  # int64 byte addresses
    lengths: np.ndarray  # int64 instruction counts (> 0)

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.lengths):
            raise ScheduleError("starts and lengths must be parallel arrays")

    def cache_block_sequence(self, block_bytes: int) -> np.ndarray:
        """The sequence of cache-block addresses this stream touches.

        Within a sequential run, consecutive fetches to the same cache
        block always hit once the block is resident, so for *miss
        counting* the stream can be reduced to one touch per cache block
        per run.  This reduction is exact for any cache whose blocks hold
        ``block_bytes`` bytes and is what makes full-trace simulation
        affordable in pure Python.

        Returns block indices (byte address >> log2(block_bytes)).
        """
        shift = log2_int(block_bytes)
        first = self.starts >> shift
        last = (self.starts + self.lengths * WORD_BYTES - 1) >> shift
        counts = (last - first + 1).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Vectorized concatenation of ranges [first[i], last[i]].
        out_base = np.repeat(first, counts)
        starts_exclusive = np.concatenate(([0], np.cumsum(counts)[:-1]))
        offsets = np.arange(total, dtype=np.int64) - np.repeat(starts_exclusive, counts)
        return out_base + offsets


def expand_istream(
    trace: ExecutionTrace,
    translation: TranslationFile,
    start: int = 0,
    stop: Optional[int] = None,
) -> InstructionStream:
    """Expand an execution trace into the translated instruction stream.

    ``start`` and ``stop`` expand only the trace steps ``[start, stop)``.
    A step's runs depend on the step before it (how control left that
    block), so a window after the first reads the step in front of it;
    expanding consecutive windows and joining their runs gives the
    whole trace's stream.
    """
    compiled = translation.compiled
    if trace.compiled is not compiled and trace.compiled.names != compiled.names:
        raise ScheduleError("trace and translation refer to different programs")
    if start < 0:
        raise ScheduleError(f"window start must be non-negative, got {start}")
    stop = len(trace.block_ids) if stop is None else min(stop, len(trace.block_ids))
    # The step in front of the window only supplies its predecessor role.
    lead = 1 if 0 < start < stop else 0
    ids = trace.block_ids[start - lead : stop]
    went_taken = trace.went_taken[start - lead : stop]
    n = len(ids)
    if n == 0:
        return InstructionStream(np.empty(0, np.int64), np.empty(0, np.int64))

    skip_in = np.zeros(n, dtype=np.int64)
    wrong_starts = np.zeros(n, dtype=np.int64)
    wrong_lengths = np.zeros(n, dtype=np.int64)
    if n > 1:
        prev = ids[:-1]
        prev_taken = went_taken[:-1] == 1
        # Predicted-taken and taken: the target's first s words were
        # already fetched as replicas in the previous block's run.
        skip_in[1:] = translation.skip_words[prev] * prev_taken
        # Predicted-not-taken but taken: s wrong-path sequential fetches.
        mispredict = (
            (compiled.kinds[prev] == BlockKind.CONDITIONAL)
            & ~translation.predicted_taken[prev]
            & prev_taken
        )
        fall = compiled.fall_ids[prev]
        valid = mispredict & (fall >= 0)
        fall_valid = fall[valid]
        wrong_lengths[1:][valid] = np.minimum(
            translation.s_values[prev][valid], translation.new_lengths[fall_valid]
        )
        wrong_starts[1:][valid] = translation.new_addresses[fall_valid]

    main_starts = translation.new_addresses[ids] + WORD_BYTES * skip_in
    main_lengths = np.maximum(translation.new_lengths[ids] - skip_in, 0)

    starts = np.empty(2 * n, dtype=np.int64)
    lengths = np.empty(2 * n, dtype=np.int64)
    starts[0::2] = wrong_starts
    lengths[0::2] = wrong_lengths
    starts[1::2] = main_starts
    lengths[1::2] = main_lengths
    starts, lengths = starts[2 * lead :], lengths[2 * lead :]
    keep = lengths > 0
    return InstructionStream(starts[keep], lengths[keep])


@dataclass(frozen=True)
class BranchDelayStats:
    """Table 3 quantities for one (trace, delay-slot count) pair.

    ``wasted_cycles`` counts squashed delay slots: all ``s`` slots of a
    mispredicted CTI, and the ``s`` noop slots of every register-indirect
    CTI.  Slots filled from before the CTI (``r``) are always useful.
    """

    slots: int
    cti_count: int
    wasted_cycles: int
    instruction_count: int
    predicted_taken_count: int
    predicted_taken_correct: int
    predicted_not_taken_count: int
    predicted_not_taken_correct: int

    @property
    def cycles_per_cti(self) -> float:
        """1 + average squashed slots per CTI (Table 3/4's middle column)."""
        if self.cti_count == 0:
            return 1.0
        return 1.0 + self.wasted_cycles / self.cti_count

    @property
    def additional_cpi(self) -> float:
        """CPI increase from squashed slots (Table 3's right column)."""
        if self.instruction_count == 0:
            return 0.0
        return self.wasted_cycles / self.instruction_count

    @property
    def taken_accuracy(self) -> float:
        if self.predicted_taken_count == 0:
            return 1.0
        return self.predicted_taken_correct / self.predicted_taken_count

    @property
    def not_taken_accuracy(self) -> float:
        if self.predicted_not_taken_count == 0:
            return 1.0
        return self.predicted_not_taken_correct / self.predicted_not_taken_count

    @property
    def predicted_taken_pct(self) -> float:
        total = self.predicted_taken_count + self.predicted_not_taken_count
        return 100.0 * self.predicted_taken_count / total if total else 0.0


def branch_delay_stats(
    trace: ExecutionTrace, translation: TranslationFile
) -> BranchDelayStats:
    """Measure squashed-slot cycles and prediction accuracy over a trace."""
    compiled = translation.compiled
    ids = trace.block_ids
    kinds = compiled.kinds[ids]
    is_cti = kinds != BlockKind.FALLTHROUGH
    s = translation.s_values[ids]
    pred = translation.predicted_taken[ids]
    indirect = translation.indirect[ids]
    taken = trace.went_taken == 1

    conditional = kinds == BlockKind.CONDITIONAL
    mispredicted = conditional & (pred != taken)
    wasted = np.where(is_cti & (indirect | mispredicted), s, 0)

    pred_taken = is_cti & pred
    pred_not_taken = is_cti & ~pred
    # Direct jumps/calls and register-indirect CTIs always transfer
    # control, so a taken prediction for them is always correct.
    correct = ~conditional | (pred == taken)

    return BranchDelayStats(
        slots=translation.slots,
        cti_count=int(is_cti.sum()),
        wasted_cycles=int(wasted.sum()),
        instruction_count=trace.instruction_count,
        predicted_taken_count=int(pred_taken.sum()),
        predicted_taken_correct=int((pred_taken & correct).sum()),
        predicted_not_taken_count=int(pred_not_taken.sum()),
        predicted_not_taken_correct=int((pred_not_taken & correct).sum()),
    )
