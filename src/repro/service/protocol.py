"""Design-space query model: parsing, canonicalization, digests.

A sweep query names a *scale* (which measurement session answers it), an
*objective*, and a *grid* of :class:`~repro.core.config.SystemConfig`
design points.  Two queries that mean the same thing must hash to the
same :attr:`SweepQuery.digest` — that digest is the memoisation key for
the whole service, so canonicalization is the contract here:

* every config is normalized field by field (``8`` and ``8.0`` are the
  same cache size; enum values accept their string spellings; omitted
  fields take the :class:`SystemConfig` defaults);
* the grid is deduplicated and sorted into a canonical order, so listing
  the same points twice, or in a different order, or via the compact
  ``{"base": ..., "axes": ...}`` cross-product form, all canonicalize to
  one grid;
* the digest covers the resolved scale, the objective, the canonical
  grid, the technology digest, and the relevant artifact versions —
  the service's, the design point's, and the generator's and lowering's
  that key the ``trace`` and ``compiled`` artifacts — the same inputs
  that make two sweeps byte-identical, so a restarted service never
  serves an answer an older generator computed.

The tenant is deliberately *not* part of the digest: memoisation is
shared, so one tenant's finished sweep answers every tenant's identical
query.  Tenancy only affects queueing fairness and namespacing.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import (
    BranchScheme,
    LoadScheme,
    PenaltyMode,
    SystemConfig,
    config_to_params,
)
from repro.core.frontier import objective_value, pareto_frontier, within_budgets
from repro.core.measurement import GENERATOR_VERSION
from repro.core.optimizer import DESIGN_POINT_VERSION, point_order_key, tech_digest
from repro.errors import ConfigurationError
from repro.physical.technology import DEFAULT_PHYSICAL
from repro.timing.technology import DEFAULT_TECHNOLOGY
from repro.trace.compiled import LOWERING_VERSION
from repro.utils.jsonio import jsonable

__all__ = [
    "SERVICE_SWEEP_VERSION",
    "OBJECTIVES",
    "SweepQuery",
    "parse_query",
    "normalize_config",
    "canonical_grid",
    "canonical_objective",
    "result_payload",
]

#: Bump when the service's answer payload changes shape (memo invalidation).
#: 2: points carry epi/area/edp/power, payloads carry the Pareto frontier,
#: queries carry budgets and the multi-objective family.
SERVICE_SWEEP_VERSION = 2

#: Supported optimization objectives (canonical spellings).
OBJECTIVES = ("min_tpi", "min_epi", "min_edp", "frontier")

#: Accepted objective spellings -> canonical name.  Canonicalizing here
#: (not just validating) is what makes ``"objective": "tpi"`` and
#: ``"objective": "min_tpi"`` the *same query*, hence the same digest,
#: hence one memoised sweep.
_OBJECTIVE_ALIASES = {
    "min_tpi": "min_tpi",
    "tpi": "min_tpi",
    "min_epi": "min_epi",
    "epi": "min_epi",
    "min_edp": "min_edp",
    "edp": "min_edp",
    "frontier": "frontier",
    "pareto": "frontier",
}

#: The scalar each single-objective canonical name minimizes.
_OBJECTIVE_SCALARS = {"min_tpi": "tpi", "min_epi": "epi", "min_edp": "edp"}


def canonical_objective(objective: Any) -> str:
    """An objective spelling -> its canonical name (or an error)."""
    if isinstance(objective, str):
        canonical = _OBJECTIVE_ALIASES.get(objective.lower())
        if canonical is not None:
            return canonical
    raise ConfigurationError(
        f"unknown objective {objective!r}; choose from {list(OBJECTIVES)} "
        f"(aliases: {sorted(set(_OBJECTIVE_ALIASES) - set(OBJECTIVES))})"
    )

#: Upper bound on canonical grid size per query — a service request is a
#: bounded unit of work, not an arbitrary batch job.
MAX_GRID_POINTS = 4096

#: Upper bound on tenant-name length (a queueing label, not a payload).
_MAX_TENANT_LEN = 64

_FLOAT_FIELDS = ("icache_kw", "dcache_kw", "penalty")
_INT_FIELDS = ("block_words", "branch_slots", "load_slots")
_ENUM_FIELDS: Dict[str, Any] = {
    "penalty_mode": PenaltyMode,
    "branch_scheme": BranchScheme,
    "load_scheme": LoadScheme,
}
_CONFIG_FIELDS = frozenset(_FLOAT_FIELDS + _INT_FIELDS) | frozenset(_ENUM_FIELDS)

#: Technology digest baked into every query digest (the service always
#: evaluates against the paper's default delay + physical technologies)
#: — the same key :class:`~repro.core.optimizer.DesignOptimizer` gives
#: its design-point artifacts, so the memo and the point cache agree.
_TECH_DIGEST = tech_digest(DEFAULT_TECHNOLOGY, DEFAULT_PHYSICAL)


def _coerce_float(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"config field {name!r} must be a number, got {value!r}"
        )
    return float(value)


def _coerce_int(name: str, value: Any) -> int:
    if isinstance(value, bool):
        raise ConfigurationError(
            f"config field {name!r} must be an integer, got {value!r}"
        )
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigurationError(
                f"config field {name!r} must be integral, got {value!r}"
            )
        value = int(value)
    if not isinstance(value, int):
        raise ConfigurationError(
            f"config field {name!r} must be an integer, got {value!r}"
        )
    return value


def _coerce_enum(name: str, value: Any, enum_cls: Any) -> Any:
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except ValueError:
        choices = sorted(member.value for member in enum_cls)
        raise ConfigurationError(
            f"config field {name!r} must be one of {choices}, got {value!r}"
        ) from None


def normalize_config(params: Mapping[str, Any]) -> SystemConfig:
    """One grid entry -> a validated, canonically-typed SystemConfig.

    Unknown fields are an error (a typo'd field silently taking its
    default would change the meaning of the query); omitted fields take
    the :class:`SystemConfig` defaults, so an explicit default and an
    omission canonicalize identically.
    """
    if not isinstance(params, Mapping):
        raise ConfigurationError(
            f"grid entries must be JSON objects, got {type(params).__name__}"
        )
    unknown = sorted(set(params) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown config field(s) {unknown}; valid fields: "
            f"{sorted(_CONFIG_FIELDS)}"
        )
    clean: Dict[str, Any] = {}
    for name, value in params.items():
        if name in _ENUM_FIELDS:
            clean[name] = _coerce_enum(name, value, _ENUM_FIELDS[name])
        elif name in _INT_FIELDS:
            clean[name] = _coerce_int(name, value)
        else:
            clean[name] = _coerce_float(name, value)
    return SystemConfig(**clean)


def _config_sort_key(config: SystemConfig) -> str:
    return json.dumps(config_to_params(config), sort_keys=True)


def canonical_grid(configs: Iterable[SystemConfig]) -> Tuple[SystemConfig, ...]:
    """Deduplicate and order a grid so equivalent grids compare equal."""
    unique = list(dict.fromkeys(configs))
    return tuple(sorted(unique, key=_config_sort_key))


def _expand_axes(grid: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The compact cross-product form: base params x per-field axes."""
    base = grid.get("base", {})
    axes = grid.get("axes", {})
    extra = sorted(set(grid) - {"base", "axes"})
    if extra:
        raise ConfigurationError(
            f"grid object supports only 'base' and 'axes' keys, got {extra}"
        )
    if not isinstance(base, Mapping) or not isinstance(axes, Mapping):
        raise ConfigurationError("grid 'base' and 'axes' must be JSON objects")
    for name, values in axes.items():
        if name not in _CONFIG_FIELDS:
            raise ConfigurationError(
                f"unknown axis {name!r}; valid fields: {sorted(_CONFIG_FIELDS)}"
            )
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise ConfigurationError(f"axis {name!r} must be a list of values")
        if not values:
            raise ConfigurationError(f"axis {name!r} must not be empty")
    expanded: List[Dict[str, Any]] = [dict(base)]
    for name in sorted(axes):
        expanded = [
            {**entry, name: value} for entry in expanded for value in axes[name]
        ]
        if len(expanded) > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"grid expands past {MAX_GRID_POINTS} points"
            )
    return expanded


@dataclass(frozen=True)
class SweepQuery:
    """One canonical design-space question.

    ``configs`` is already canonical (deduplicated, sorted); construct
    through :func:`parse_query` rather than directly unless the grid was
    canonicalized by hand.  The query is frozen, so its digest is
    rendered once and cached on the instance.
    """

    scale: str
    configs: Tuple[SystemConfig, ...]
    objective: str = "min_tpi"
    tenant: str = "public"
    max_area_cm2: Optional[float] = None
    max_power_w: Optional[float] = None

    @functools.cached_property
    def digest(self) -> str:
        """The memoisation key: same meaning -> same digest."""
        payload = {
            "service_version": SERVICE_SWEEP_VERSION,
            "design_point_version": DESIGN_POINT_VERSION,
            "generator_version": GENERATOR_VERSION,
            "lowering_version": LOWERING_VERSION,
            "tech": _TECH_DIGEST,
            "scale": self.scale,
            "objective": self.objective,
            "budgets": [self.max_area_cm2, self.max_power_w],
            "configs": [config_to_params(config) for config in self.configs],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def _check_tenant(tenant: Any) -> str:
    if not isinstance(tenant, str) or not tenant:
        raise ConfigurationError(f"tenant must be a non-empty string: {tenant!r}")
    if len(tenant) > _MAX_TENANT_LEN or not all(
        ch.isalnum() or ch in "-_." for ch in tenant
    ):
        raise ConfigurationError(
            f"tenant {tenant!r} must be <= {_MAX_TENANT_LEN} chars of "
            f"[alphanumeric - _ .]"
        )
    return tenant


def parse_query(
    payload: Mapping[str, Any], scales: Optional[Iterable[str]] = None
) -> SweepQuery:
    """A JSON request body -> a canonical :class:`SweepQuery`.

    Args:
        payload: Parsed request JSON: ``{"scale", "grid", "objective",
            "tenant"}``; ``grid`` is either a list of config objects or
            the compact ``{"base", "axes"}`` cross-product form.
        scales: Valid scale names (default: the standard quick/full
            table) — the service passes its registry's scales so custom
            deployments can serve custom session sizes.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError("query must be a JSON object")
    known = {
        "scale",
        "grid",
        "objective",
        "tenant",
        "wait",
        "max_area_cm2",
        "max_power_w",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown query field(s) {unknown}; valid fields: {sorted(known)}"
        )
    valid_scales = sorted(
        scales if scales is not None else ("quick", "full")
    )
    scale = payload.get("scale", "quick")
    if scale not in valid_scales:
        raise ConfigurationError(
            f"unknown scale {scale!r}; choose from {valid_scales}"
        )
    objective = canonical_objective(payload.get("objective", "min_tpi"))
    budgets = {}
    for name in ("max_area_cm2", "max_power_w"):
        value = payload.get(name)
        if value is None:
            budgets[name] = None
            continue
        value = _coerce_float(name, value)
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")
        budgets[name] = value
    tenant = _check_tenant(payload.get("tenant", "public"))
    grid = payload.get("grid")
    if isinstance(grid, Mapping):
        entries: List[Mapping[str, Any]] = _expand_axes(grid)
    elif isinstance(grid, Sequence) and not isinstance(grid, (str, bytes)):
        entries = list(grid)
    else:
        raise ConfigurationError(
            "query 'grid' must be a list of config objects or a "
            "{'base', 'axes'} object"
        )
    if not entries:
        raise ConfigurationError("query grid must contain at least one point")
    if len(entries) > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"query grid has {len(entries)} points; the service caps one "
            f"query at {MAX_GRID_POINTS}"
        )
    configs = canonical_grid(normalize_config(entry) for entry in entries)
    return SweepQuery(
        scale=scale,
        configs=configs,
        objective=objective,
        tenant=tenant,
        max_area_cm2=budgets["max_area_cm2"],
        max_power_w=budgets["max_power_w"],
    )


def result_payload(query: SweepQuery, points: Sequence[Any]) -> Dict[str, Any]:
    """The JSON answer for a finished sweep: points, frontier, and best.

    Point order follows the canonical grid order, so identical queries
    produce byte-identical payloads regardless of which client's
    submission actually executed.  Budgets filter the eligible set
    before both the frontier and the best; ``best`` is None for the
    ``frontier`` objective and when no point fits the budgets.
    """
    rendered = [
        {
            "config": jsonable(config_to_params(point.config)),
            "cpi": point.cpi,
            "cycle_time_ns": point.cycle_time_ns,
            "tpi_ns": point.tpi_ns,
            "epi_nj": point.epi_nj,
            "area_cm2": point.area_cm2,
            "edp": point.edp,
            "power_w": point.power_w,
        }
        for point in points
    ]
    index_of = {id(point): i for i, point in enumerate(points)}
    eligible = within_budgets(
        points, max_area_cm2=query.max_area_cm2, max_power_w=query.max_power_w
    )
    frontier = [rendered[index_of[id(point)]] for point in pareto_frontier(eligible)]
    best = None
    if eligible and query.objective != "frontier":
        scalar = _OBJECTIVE_SCALARS[query.objective]
        winner = min(
            eligible,
            key=lambda point: (objective_value(point, scalar), point_order_key(point)),
        )
        best = rendered[index_of[id(winner)]]
    return jsonable(
        {
            "digest": query.digest,
            "scale": query.scale,
            "objective": query.objective,
            "max_area_cm2": query.max_area_cm2,
            "max_power_w": query.max_power_w,
            "point_count": len(rendered),
            "eligible_count": len(eligible),
            "points": rendered,
            "frontier": frontier,
            "frontier_count": len(frontier),
            "best": best,
        }
    )
