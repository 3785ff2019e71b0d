"""TPI — the paper's performance metric (equation 1).

``TPI = CPI x t_CPU`` (time per instruction, ns).  Equation 7 gives the
incremental view: a change helps iff the relative decrease in ``t_CPU``
exceeds the relative increase in CPI.  :func:`required_tcpu_reduction`
is its exact break-even, which Figure 11 plots to show how much
cycle-time improvement each extra delay slot must buy.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["tpi_ns", "required_tcpu_reduction"]


def tpi_ns(cpi: float, cycle_time_ns: float) -> float:
    """Equation 1: time per instruction in nanoseconds.

    >>> tpi_ns(2.0, 3.5)
    7.0
    """
    if cpi <= 0 or cycle_time_ns <= 0:
        raise ConfigurationError("CPI and cycle time must be positive")
    return cpi * cycle_time_ns


def required_tcpu_reduction(cpi_before: float, cpi_after: float) -> float:
    """Relative t_CPU decrease needed to break even on a CPI increase.

    This is what Figure 11 plots against cache size: if adding delay
    cycles raises CPI by x %, the cycle time must fall by more than
    (roughly) x % for performance to improve.

    >>> round(required_tcpu_reduction(2.0, 2.2), 4)
    0.0909
    """
    if cpi_before <= 0 or cpi_after <= 0:
        raise ConfigurationError("CPI values must be positive")
    # Exact break-even: (1 - r) * cpi_after = cpi_before.
    return 1.0 - cpi_before / cpi_after
