"""Shared utilities: units, statistics, RNG handling, and table rendering.

These helpers are deliberately small and dependency-free so that every other
subpackage can use them without import cycles.
"""

from repro.utils.units import (
    WORD_BYTES,
    kw_to_words,
    words_to_bytes,
    is_power_of_two,
    log2_int,
)
from repro.utils.stats import (
    weighted_harmonic_mean,
    weighted_arithmetic_mean,
    harmonic_mean,
)
from repro.utils.rng import spawn_rng, stable_seed
from repro.utils.tables import render_table, render_series

__all__ = [
    "WORD_BYTES",
    "kw_to_words",
    "words_to_bytes",
    "is_power_of_two",
    "log2_int",
    "weighted_harmonic_mean",
    "weighted_arithmetic_mean",
    "harmonic_mean",
    "spawn_rng",
    "stable_seed",
    "render_table",
    "render_series",
]
