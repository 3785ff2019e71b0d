"""The branch-target buffer evaluated in Section 3.1.

Every instruction address is checked against the BTB's tags; a hit is
predicted to be a CTI and, if its 2-bit counter predicts taken, the stored
target is fetched next.  The simulated configuration matches the paper:
256 entries, direct-mapped, with two 32-bit addresses plus 2 prediction
bits per entry (about 2 KB of SRAM — the largest size with single-cycle
access at the paper's cycle-time floor).

A prediction is *correct* only when the direction is right **and**, for a
predicted-taken CTI, the stored target equals the actual target (returns
and computed gotos frequently fail the target check — a real BTB weakness
the paper's numbers include).  Each BTB miss or incorrect prediction costs
the full branch delay plus one refill cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.units import is_power_of_two

__all__ = ["BTBStats", "BranchTargetBuffer"]

#: The paper's configuration.
DEFAULT_ENTRIES = 256

#: CTIs :meth:`BranchTargetBuffer.simulate` converts to Python scalars at
#: a time, so its lists follow the slice rather than the stream (a
#: converted CTI costs about 100 bytes).
SIMULATE_SLICE = 1 << 14


@dataclass(frozen=True)
class BTBStats:
    """Aggregate outcome of a BTB simulation over a CTI stream."""

    ctis: int
    hits: int
    correct: int

    @property
    def wrong(self) -> int:
        """CTIs that missed the BTB or were mispredicted."""
        return self.ctis - self.correct

    @property
    def hit_rate(self) -> float:
        return self.hits / self.ctis if self.ctis else 0.0

    @property
    def wrong_rate(self) -> float:
        """Fraction of CTIs paying the full delay + refill penalty."""
        return self.wrong / self.ctis if self.ctis else 0.0

    def cycles_per_cti(self, delay_cycles: int) -> float:
        """Average cycles per CTI with ``delay_cycles`` branch delay.

        A correct prediction fully hides the delay; a miss or mispredict
        costs the delay plus one BTB refill cycle (Table 4).
        """
        if delay_cycles < 0:
            raise ConfigurationError("delay cycles must be >= 0")
        return 1.0 + self.wrong_rate * (delay_cycles + 1)

    def additional_cpi(self, delay_cycles: int, cti_fraction: float) -> float:
        """CPI increase given the dynamic CTI fraction (Table 4)."""
        return cti_fraction * (self.cycles_per_cti(delay_cycles) - 1.0)

    def __add__(self, other: "BTBStats") -> "BTBStats":
        """The outcome over two pieces of one stream, simulated in turn."""
        return BTBStats(
            ctis=self.ctis + other.ctis,
            hits=self.hits + other.hits,
            correct=self.correct + other.correct,
        )


class BranchTargetBuffer:
    """Direct-mapped BTB with 2-bit counters.

    Args:
        entries: Number of entries (power of two).
    """

    def __init__(self, entries: int = DEFAULT_ENTRIES) -> None:
        if not is_power_of_two(entries):
            raise ConfigurationError(f"BTB entries must be a power of two: {entries}")
        self.entries = entries
        self._tags = [None] * entries  # type: list
        self._targets = [0] * entries
        self._counters = [0] * entries

    def simulate(
        self,
        pcs: Sequence[int],
        taken: Sequence[bool],
        targets: Sequence[int],
    ) -> BTBStats:
        """Run a CTI stream through the BTB and aggregate statistics.

        The arrays are walked :data:`SIMULATE_SLICE` CTIs at a time.  The
        buffer keeps its state between calls, so feeding a stream piece
        by piece and adding the pieces' statistics gives the outcome of
        one call over the whole stream.
        """
        if not (len(pcs) == len(taken) == len(targets)):
            raise ConfigurationError("pcs, taken, targets must be parallel")
        pcs = np.asarray(pcs)
        taken = np.asarray(taken, dtype=bool)
        targets = np.asarray(targets)
        tags, tgts, counters = self._tags, self._targets, self._counters
        mask = self.entries - 1
        hits = 0
        correct = 0
        for start in range(0, len(pcs), SIMULATE_SLICE):
            stop = start + SIMULATE_SLICE
            for pc, was_taken, target in zip(
                pcs[start:stop].tolist(),
                taken[start:stop].tolist(),
                targets[start:stop].tolist(),
            ):
                index = (pc >> 2) & mask
                if tags[index] == pc:
                    hits += 1
                    counter = counters[index]
                    predicted_taken = counter >= 2
                    if predicted_taken == was_taken and (
                        not predicted_taken or tgts[index] == target
                    ):
                        correct += 1
                    if was_taken:
                        if counter < 3:
                            counters[index] = counter + 1
                        tgts[index] = target
                    elif counter > 0:
                        counters[index] = counter - 1
                else:
                    tags[index] = pc
                    tgts[index] = target
                    counters[index] = 2 if was_taken else 1
        return BTBStats(ctis=len(pcs), hits=hits, correct=correct)
