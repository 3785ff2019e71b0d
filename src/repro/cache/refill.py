"""Miss penalty / refill model.

The paper's miss penalties come from a simple refill pipeline: a fixed
2-cycle startup (address to the backing store, first word latency) plus one
cycle per ``refill_rate`` words of the block.  The three penalties studied
— 6, 10, and 18 cycles — correspond to refill rates of 4, 2, and 1 word
per cycle for a 16 W block; the experiments also treat the penalty as a
free parameter, so :class:`RefillModel` supports both views.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["RefillModel", "PAPER_PENALTIES"]

#: The penalties the paper sweeps (in cycles).
PAPER_PENALTIES = (6, 10, 18)


@dataclass(frozen=True)
class RefillModel:
    """Block refill timing.

    Attributes:
        startup_cycles: Fixed latency before the first word arrives.
        refill_rate_words: Words transferred per cycle once streaming.
    """

    startup_cycles: int = 2
    refill_rate_words: float = 2.0

    def __post_init__(self) -> None:
        if self.startup_cycles < 0:
            raise ConfigurationError("startup cycles must be >= 0")
        if self.refill_rate_words <= 0:
            raise ConfigurationError("refill rate must be positive")

    def penalty_cycles(self, block_words: int) -> int:
        """Total miss penalty for a block of ``block_words`` words.

        >>> RefillModel(2, 4).penalty_cycles(16)
        6
        >>> RefillModel(2, 2).penalty_cycles(16)
        10
        >>> RefillModel(2, 1).penalty_cycles(16)
        18
        """
        if block_words <= 0:
            raise ConfigurationError("block size must be positive")
        transfer = -(-block_words // self.refill_rate_words)  # ceil division
        return int(self.startup_cycles + transfer)
