"""Statistical helpers.

The paper reports CPI values as the *weighted harmonic mean* over all
benchmarks, with weights equal to each benchmark's fraction of total
execution time.  These helpers implement that and the related means.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "weighted_harmonic_mean",
    "weighted_arithmetic_mean",
    "harmonic_mean",
]


def weighted_harmonic_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted harmonic mean of ``values``.

    Defined as ``sum(w) / sum(w / v)``.  This is the correct way to average
    *rates* (such as instructions per cycle) when the weights are amounts of
    work.  The paper uses it to combine per-benchmark CPI values with weights
    proportional to each benchmark's share of total execution time.

    >>> round(weighted_harmonic_mean([1.0, 2.0], [1.0, 1.0]), 4)
    1.3333
    """
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    if not values:
        raise ValueError("cannot average an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic mean requires strictly positive values")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total_weight = float(sum(weights))
    if total_weight == 0:
        raise ValueError("at least one weight must be positive")
    return total_weight / sum(w / v for v, w in zip(values, weights))


def harmonic_mean(values: Sequence[float]) -> float:
    """Unweighted harmonic mean.

    >>> round(harmonic_mean([1.0, 2.0]), 4)
    1.3333
    """
    return weighted_harmonic_mean(values, [1.0] * len(values))


def weighted_arithmetic_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted arithmetic mean ``sum(w * v) / sum(w)``.

    Used for averaging quantities that add linearly, such as instruction-mix
    percentages weighted by instruction counts.
    """
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    if not values:
        raise ValueError("cannot average an empty sequence")
    total_weight = float(sum(weights))
    if total_weight <= 0:
        raise ValueError("total weight must be positive")
    return sum(v * w for v, w in zip(values, weights)) / total_weight
