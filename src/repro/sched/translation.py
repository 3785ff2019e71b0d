"""Translation files: mapping canonical code to a b-delay-slot architecture.

The paper's post-processor emits a *translation file* that maps instruction
addresses of the canonical object code onto those of an architecture with
``b`` delay slots and optional squashing; the trace-driven simulator then
replays canonical traces through that mapping.  :class:`TranslationFile`
is the same artifact in array form: for every block, its translated start
address and length, the ``s`` value, and the prediction flag.

Every input of the delay-slot procedure that does not depend on ``b`` —
each CTI's hoist limit, static prediction and indirect flag — is lowered
once per program by :class:`~repro.trace.compiled.CompiledProgram`, so a
translation file is a handful of O(blocks) array expressions per slot
count.  :func:`~repro.sched.branch_schedule.schedule_ctis` is the
per-block reference it is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError
from repro.trace.compiled import BlockKind, CompiledProgram
from repro.utils.units import WORD_BYTES

__all__ = ["TranslationFile"]


class TranslationFile:
    """Per-block translation data for a ``slots``-delay-slot architecture.

    Attributes (arrays indexed by block id):
        new_lengths: Translated block length in instructions (canonical
            length plus replicated/noop growth).
        new_addresses: Translated start byte address of each block.
        skip_words: Words of the *target* block already executed in this
            block's delay slots; applied by the trace expander when this
            block's CTI is predicted taken and actually taken.
        s_values / r_values: The per-CTI delay-slot split (0 for blocks
            without a CTI).
        predicted_taken: Static prediction flag per block (False for
            blocks without a CTI).
        indirect: Register-indirect-CTI flag per block.
    """

    def __init__(self, compiled: CompiledProgram, slots: int) -> None:
        if slots < 0:
            raise ScheduleError("slots must be >= 0")
        self.compiled = compiled
        self.slots = slots
        is_cti = compiled.kinds != BlockKind.FALLTHROUGH
        # Steps 1+2: r slots filled from before the CTI; s = b - r remain.
        self.r_values = np.minimum(compiled.hoist_limits, slots).astype(np.int32)
        self.s_values = np.where(is_cti, slots - self.r_values, 0).astype(np.int32)
        self.predicted_taken = compiled.predicted_taken
        self.indirect = compiled.indirect
        # Step 4: predicted-taken and indirect CTIs grow by s (replicas or
        # noops); only direct predicted-taken CTIs skip into their target.
        growth = np.where(self.predicted_taken | self.indirect, self.s_values, 0)
        self.skip_words = np.where(
            self.predicted_taken & ~self.indirect, self.s_values, 0
        ).astype(np.int32)
        self.new_lengths = (compiled.lengths + growth).astype(np.int32)
        starts = np.concatenate(([0], np.cumsum(self.new_lengths)[:-1]))
        self.new_addresses = (
            compiled.text_base + starts * WORD_BYTES
        ).astype(np.int64)

    @property
    def code_words(self) -> int:
        """Static size of the translated code, in words."""
        return int(self.new_lengths.sum())

    @property
    def expansion_pct(self) -> float:
        """Static code growth over canonical code, in percent (Table 2)."""
        base = self.compiled.static_words
        return 100.0 * (self.code_words - base) / base
