"""Unit conversions used throughout the paper and this reproduction.

The paper measures cache sizes in *words* (W) and *kilowords* (KW), where one
word is 4 bytes (the MIPS R2000 word size).  A "1 KW" instruction cache is
therefore 4 KB.  Block (line) sizes are given in words as well: the paper
evaluates 4 W, 8 W, and 16 W blocks.

Times are expressed in nanoseconds everywhere; there is no dedicated type for
them, but function and attribute names carry an ``_ns`` suffix when the unit
is not obvious from context.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = [
    "WORD_BYTES",
    "kw_to_words",
    "words_to_bytes",
    "is_power_of_two",
    "log2_int",
]

#: Number of bytes in a machine word (MIPS R2000: 32-bit words).
WORD_BYTES = 4


def kw_to_words(kilowords: float) -> int:
    """Convert a size in kilowords to words.

    Fractional kiloword sizes are fine as long as they denote a whole
    number of words (0.5 KW = 512 W); anything else is rejected rather
    than silently truncated — ``int(0.3 * 1024)`` would yield 307 words,
    a geometry the caller never asked for.

    >>> kw_to_words(1)
    1024
    >>> kw_to_words(32)
    32768
    """
    exact = kilowords * 1024
    words = int(exact)
    if words != exact:
        raise ConfigurationError(
            f"{kilowords} KW is not a whole number of words"
        )
    if words <= 0:
        raise ConfigurationError(f"cache size must be positive, got {kilowords} KW")
    return words


def words_to_bytes(words: int) -> int:
    """Convert a size in words to bytes (4 bytes per word).

    >>> words_to_bytes(1024)
    4096
    """
    return words * WORD_BYTES


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two.

    >>> is_power_of_two(8)
    True
    >>> is_power_of_two(0)
    False
    >>> is_power_of_two(12)
    False
    """
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Return the exact base-2 logarithm of a power-of-two integer.

    Raises :class:`ConfigurationError` for non-powers-of-two; cache geometry
    code relies on exact shifts, so silently rounding would corrupt indexing.

    >>> log2_int(1024)
    10
    """
    if not is_power_of_two(value):
        raise ConfigurationError(f"expected a power of two, got {value}")
    return value.bit_length() - 1
