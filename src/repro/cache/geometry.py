"""Shared power-of-two cache-geometry validation.

Every miss-counting layer sweeps the same kinds of axes — set counts,
associativities, block sizes, capacities — and each axis has the same
power-of-two well-formedness rules.  This module is the single place
those rules live; :mod:`~repro.cache.fastsim`,
:mod:`~repro.cache.misscube`, :mod:`~repro.cache.cubepart`, and the
session-level geometry checks in
:class:`~repro.core.measurement.SuiteMeasurement` all delegate here.

Validators accept an optional ``context`` (e.g. ``"L1-I"`` / ``"L1-D"``)
which is woven into the :class:`~repro.errors.ConfigurationError`
message, so a failure deep inside a sweep still names the cache side the
caller was configuring.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.utils.units import is_power_of_two, kw_to_words, log2_int

__all__ = [
    "geometry_error",
    "checked_levels",
    "checked_ways",
    "checked_block_words",
    "derived_sets",
]


def geometry_error(message: str, context: Optional[str] = None) -> ConfigurationError:
    """A ConfigurationError, prefixed with the cache-side context if any."""
    if context:
        message = f"invalid {context} geometry: {message}"
    return ConfigurationError(message)


def checked_levels(
    set_counts: Sequence[int], context: Optional[str] = None
) -> Dict[int, int]:
    """Map ``num_sets -> log2(num_sets)``, validating every entry."""
    levels: Dict[int, int] = {}
    for num_sets in set_counts:
        if not is_power_of_two(num_sets):
            raise geometry_error(
                f"set count must be a power of two: {num_sets}", context
            )
        levels[int(num_sets)] = log2_int(int(num_sets))
    return levels


def checked_ways(
    ways: Sequence[int], context: Optional[str] = None
) -> Tuple[int, ...]:
    """Validated associativity list (positive integers, at least one)."""
    cleaned = []
    for way in ways:
        if int(way) != way or way < 1:
            raise geometry_error(
                f"associativity must be a positive int: {way}", context
            )
        cleaned.append(int(way))
    if not cleaned:
        raise geometry_error("need at least one associativity", context)
    return tuple(cleaned)


def checked_block_words(
    block_words: Sequence[int], context: Optional[str] = None
) -> Tuple[int, ...]:
    """Validated block sizes, deduplicated and sorted ascending."""
    cleaned = set()
    for block in block_words:
        if int(block) != block or not is_power_of_two(int(block)):
            raise geometry_error(
                f"block size must be a power of two: {block}", context
            )
        cleaned.add(int(block))
    if not cleaned:
        raise geometry_error("need at least one block size", context)
    return tuple(sorted(cleaned))


def derived_sets(
    size_kw: float, block_words: int, context: Optional[str] = None
) -> int:
    """Set count of a direct-mapped cache, validated before simulation.

    ``size // block`` silently yields 0 or a non-power-of-two for odd
    geometries, which would corrupt indexing downstream — reject the
    configuration instead.
    """
    try:
        words = kw_to_words(size_kw)
    except ConfigurationError as exc:
        raise geometry_error(str(exc), context) from exc
    sets = words // block_words
    if words % block_words != 0 or sets <= 0 or not is_power_of_two(sets):
        raise geometry_error(
            f"{size_kw:g} KW with {block_words}-word blocks gives {sets} sets "
            "(need a positive power of two)",
            context,
        )
    return sets
