"""Multi-objective selection over scored design points.

The optimizer's objective space is (TPI, EPI, area) — time, energy, and
silicon, all minimized.  This module holds the pure selection machinery
over already-scored :class:`~repro.core.optimizer.DesignPoint` values:

* :func:`dominates` / :func:`pareto_frontier` — the exact non-dominated
  set, in deterministic :func:`~repro.core.optimizer.point_order_key`
  order;
* :func:`within_budgets` — budget-constrained filtering (``area <= A``,
  ``power <= P``), the Yavits/Morad/Ginosar resource-allocation mode;
* :func:`objective_value` — the scalar each named objective minimizes
  (``tpi`` / ``epi`` / ``edp``).

Everything here is deterministic and order-independent: selections are
pure functions of the point *set*, so resumed runs, reordered grids,
and parallel sweeps all report the same answer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "OBJECTIVES",
    "dominates",
    "pareto_frontier",
    "within_budgets",
    "objective_value",
]

#: Scalar objectives the optimizer (and the runner's ``--objective``
#: flag) can minimize; ``frontier`` asks for the whole Pareto set.
OBJECTIVES = ("tpi", "epi", "edp", "frontier")

#: The minimized scalar for each named single objective.
_OBJECTIVE_FNS: Dict[str, Callable] = {
    "tpi": lambda point: point.tpi_ns,
    "epi": lambda point: point.epi_nj,
    "edp": lambda point: point.edp,
}


def objective_value(point, objective: str) -> float:
    """The scalar ``objective`` assigns to ``point`` (lower is better)."""
    try:
        return _OBJECTIVE_FNS[objective](point)
    except KeyError:
        raise ConfigurationError(
            f"unknown objective {objective!r}; choose from "
            f"{sorted(_OBJECTIVE_FNS)} (or 'frontier')"
        ) from None


def _objectives(point) -> Tuple[float, float, float]:
    return (point.tpi_ns, point.epi_nj, point.area_cm2)


def dominates(a, b) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` over (TPI, EPI, area).

    Domination is the strict kind: at least as good on every axis and
    strictly better on at least one.  Points with identical objective
    vectors do not dominate each other (both stay on the frontier).
    """
    oa, ob = _objectives(a), _objectives(b)
    return all(x <= y for x, y in zip(oa, ob)) and oa != ob


def pareto_frontier(points: Sequence) -> List:
    """The exact Pareto-non-dominated subset of ``points``.

    Returned in :func:`~repro.core.optimizer.point_order_key` order —
    a pure function of each point, so the frontier's ordering is
    independent of grid order, resume history, and worker count.

    Candidates are scanned in lexicographic objective order; any
    dominator of a point sorts before it (dominance implies ``<=`` on
    the leading axes and ``<`` somewhere), so comparing each candidate
    against only the already-kept frontier is exact, not a heuristic.
    """
    from repro.core.optimizer import point_order_key

    frontier: List = []
    for candidate in sorted(points, key=_objectives):
        if any(dominates(kept, candidate) for kept in frontier):
            continue
        frontier.append(candidate)
    return sorted(frontier, key=point_order_key)


def within_budgets(
    points: Sequence,
    max_area_cm2: Optional[float] = None,
    max_power_w: Optional[float] = None,
) -> List:
    """The subset meeting the area and average-power budgets.

    Budgets are inclusive (``<=``); ``None`` leaves an axis
    unconstrained.  Returns a (possibly empty) list in input order —
    callers decide whether an empty feasible set is an error.
    """
    for name, value in (("max_area_cm2", max_area_cm2), ("max_power_w", max_power_w)):
        if value is not None and value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")
    kept = []
    for point in points:
        if max_area_cm2 is not None and point.area_cm2 > max_area_cm2:
            continue
        if max_power_w is not None and point.power_w > max_power_w:
            continue
        kept.append(point)
    return kept
