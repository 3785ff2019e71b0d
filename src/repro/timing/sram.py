"""SRAM chip counts and the full cache access time (equation 6).

``t_L1 = t_SRAM + 2 k0 + 2 n k1`` — the on-chip array access plus the
round-trip MCM delay, with ``n`` the number of SRAM chips in one L1 side.
Chip count combines a capacity term (4 KB usable per GaAs chip) with a
width floor (a 32-bit access path needs at least four byte-wide parts) and
one tag chip per eight data chips.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.timing.mcm import k1_coefficient
from repro.timing.technology import DEFAULT_TECHNOLOGY, Technology
from repro.utils.units import words_to_bytes, kw_to_words

__all__ = ["chips_for_cache", "cache_access_time_ns"]

_TAG_CHIP_RATIO = 8  # one tag chip per this many data chips


def chips_for_cache(size_kw: float, tech: Technology = DEFAULT_TECHNOLOGY) -> int:
    """Number of SRAM chips (data + tag) for one cache of ``size_kw``.

    >>> chips_for_cache(1)   # 4 KB of data: width floor of 4 + 1 tag chip
    5
    >>> chips_for_cache(32)  # 128 KB: 32 data chips + 4 tag chips
    36
    """
    size_bytes = words_to_bytes(kw_to_words(size_kw))
    data_chips = max(
        tech.min_data_chips, math.ceil(size_bytes / (tech.sram_chip_kb * 1024))
    )
    tag_chips = math.ceil(data_chips / _TAG_CHIP_RATIO)
    return data_chips + tag_chips


def cache_access_time_ns(
    size_kw: float,
    tech: Technology = DEFAULT_TECHNOLOGY,
    associativity: int = 1,
) -> float:
    """Full L1 access time ``t_L1`` for an MCM cache (eq. 6).

    Covers address out, array access, and data back:
    ``t_SRAM + 2 k0 + 2 n k1``; a set-associative organization adds a tag
    compare and way multiplexer (``way_select_ns`` per doubling of ways),
    the access-time cost Section 6's associativity conjecture weighs
    against the conflict misses removed.
    """
    if size_kw <= 0:
        raise ConfigurationError("cache size must be positive")
    if associativity < 1:
        raise ConfigurationError("associativity must be >= 1")
    chips = chips_for_cache(size_kw, tech)
    base = (
        tech.sram_access_ns
        + 2.0 * tech.driver_delay_ns
        + 2.0 * chips * k1_coefficient(tech)
    )
    return base + tech.way_select_ns * math.log2(associativity)
