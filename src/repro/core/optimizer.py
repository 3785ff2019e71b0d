"""Design-space sweep and multilevel optimization (Section 5).

:class:`DesignOptimizer` evaluates TPI over a grid of design points —
delay-slot counts, cache sizes (symmetric or asymmetric splits), penalty,
and schemes — and returns the optimum, reproducing the search behind
Figures 12 and 13.

Evaluated points are content-addressed artifacts in the session's
:class:`~repro.engine.store.ArtifactStore`, so re-visiting a
configuration (the figures sweep overlapping grids) is a cache hit.
:meth:`DesignOptimizer.sweep` builds the grid's miss planes first (on
the session's worker pool when it has one); every design point is then
a few plane reads plus the closed-form timing and physical models,
evaluated in this process.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.config import SystemConfig, config_to_params
from repro.core.cpi_model import CpiModel
from repro.core.frontier import (
    objective_value,
    pareto_frontier,
    scalarized_best,
    within_budgets,
)
from repro.core.measurement import SuiteMeasurement
from repro.core.tcpu import system_cycle_time_ns
from repro.core.tpi import tpi_ns
from repro.errors import ConfigurationError
from repro.physical.model import PhysicalModel
from repro.physical.technology import DEFAULT_PHYSICAL, PhysicalTechnology
from repro.timing.technology import DEFAULT_TECHNOLOGY, Technology
from repro.trace.io import cache_key
from repro.utils.units import kw_to_words

__all__ = [
    "DesignPoint",
    "DesignOptimizer",
    "Selection",
    "point_order_key",
    "tech_digest",
]

#: Per-side cache sizes the paper sweeps (KW).
PAPER_SIDE_SIZES_KW = (1, 2, 4, 8, 16, 32)

#: Bump when DesignPoint evaluation changes behaviour (cache invalidation).
#: 2: points carry epi_nj / area_cm2 from the physical macro-models.
DESIGN_POINT_VERSION = 2


def tech_digest(tech: Technology, phys: PhysicalTechnology) -> str:
    """The technology half of every design-point key.

    Both parameter sets key the point cache: a different energy
    coefficient is a different design point, same as a different SRAM
    speed.  ``phys_*`` prefixes keep the two namespaces disjoint.
    """
    return cache_key(
        **asdict(tech),
        **{f"phys_{name}": value for name, value in asdict(phys).items()},
    )


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration.

    ``epi_nj`` and ``area_cm2`` come from the :mod:`repro.physical`
    macro-models; points rehydrated from pre-physical records default
    both to 0.0 (the records themselves are invalidated by
    ``DESIGN_POINT_VERSION``, so this only matters for hand-built
    points in tests).
    """

    config: SystemConfig
    cpi: float
    cycle_time_ns: float
    epi_nj: float = 0.0
    area_cm2: float = 0.0

    @property
    def tpi_ns(self) -> float:
        return tpi_ns(self.cpi, self.cycle_time_ns)

    @property
    def edp(self) -> float:
        """Energy-delay product per instruction (nJ x ns)."""
        return self.tpi_ns * self.epi_nj

    @property
    def power_w(self) -> float:
        """Average power (nJ/instr over ns/instr = W exactly)."""
        return self.epi_nj / self.tpi_ns


def point_order_key(point: DesignPoint) -> Tuple:
    """Total order for reporting the optimum of a sweep.

    Primary key is TPI; equal-TPI points are ordered by cycle time (a
    faster clock wins), then energy per instruction and area (cooler,
    then smaller, wins), then combined L1 capacity, slot counts (fewer
    branch, then fewer load slots), and the I-side split.  The order is
    a pure function of the point, so :meth:`DesignOptimizer.best` and
    :meth:`DesignOptimizer.select` report the same result for resumed
    runs and reordered grids alike.
    """
    config = point.config
    return (
        point.tpi_ns,
        point.cycle_time_ns,
        point.epi_nj,
        point.area_cm2,
        config.combined_l1_kw,
        config.branch_slots,
        config.load_slots,
        config.icache_kw,
    )


@dataclass(frozen=True)
class Selection:
    """Everything one scored pass over a design space yields.

    Produced by :meth:`DesignOptimizer.select`: the scored points (input
    order), the budget-feasible subset, its Pareto frontier, and the
    objective's winner — all derived from a single sweep, so asking for
    ``best`` *and* ``frontier`` costs one scoring pass, not two.
    ``best`` is None only for the ``frontier`` objective.
    """

    objective: str
    points: Tuple[DesignPoint, ...]
    eligible: Tuple[DesignPoint, ...]
    frontier: Tuple[DesignPoint, ...]
    best: "DesignPoint | None"


class DesignOptimizer:
    """Evaluates and optimizes TPI over a design space.

    Args:
        measurement: The session supplying every measured CPI component.
        tech: Technology parameters for the cycle-time model.
        phys: Technology parameters for the energy and area models.
    """

    def __init__(
        self,
        measurement: SuiteMeasurement,
        tech: Technology = DEFAULT_TECHNOLOGY,
        phys: PhysicalTechnology = DEFAULT_PHYSICAL,
    ) -> None:
        self.measurement = measurement
        self.model = CpiModel(measurement)
        self.tech = tech
        self.phys = phys
        self.physical = PhysicalModel(measurement, tech=tech, phys=phys)
        self.tracer = measurement.tracer
        self._tech_digest = tech_digest(tech, phys)
        self._scored: "Tuple[Tuple, Tuple[DesignPoint, ...]] | None" = None

    def _evaluate_uncached(self, config: SystemConfig) -> DesignPoint:
        self.tracer.count("design_points")
        cycle = system_cycle_time_ns(config, self.tech)
        cpi = self.model.cpi(config, cycle_time_ns=cycle)
        tpi = tpi_ns(cpi, cycle)
        breakdown = self.physical.breakdown(config, tpi)
        return DesignPoint(
            config=config,
            cpi=cpi,
            cycle_time_ns=cycle,
            epi_nj=breakdown.epi_nj,
            area_cm2=breakdown.area_cm2,
        )

    def evaluate(self, config: SystemConfig) -> DesignPoint:
        """TPI of a single design point (CPI x system cycle time)."""
        return self.measurement.store.get_or_create(
            "design_point",
            DESIGN_POINT_VERSION,
            lambda: self._evaluate_uncached(config),
            tech=self._tech_digest,
            **config_to_params(config),
        )

    def _warm_miss_cubes(self, configs: Sequence[SystemConfig]) -> None:
        """One single-pass miss cube per distinct stream family.

        A design grid revisits the same instruction/data streams at many
        (block size, cache size, ways) geometries; building the grid's
        miss planes up front — every block size of a family in one
        driver call — turns every per-point miss lookup during
        evaluation into a plane read, and surfaces the engine cost as
        its own spans instead of hiding it inside the first evaluated
        point.  Block sizes that planes built earlier already cover are
        skipped.  The warm ends the session's build phase: the sweep
        only reads planes, so the session's pool is retired and its
        workers reaped.
        """
        icache_grid: Dict[int, Dict[str, set]] = {}
        dcache_grid: Dict[str, set] = {"blocks": set(), "words": set()}
        for config in configs:
            side = icache_grid.setdefault(
                config.branch_slots, {"blocks": set(), "words": set()}
            )
            side["blocks"].add(config.block_words)
            side["words"].add(kw_to_words(config.icache_kw))
            dcache_grid["blocks"].add(config.block_words)
            dcache_grid["words"].add(kw_to_words(config.dcache_kw))
        for slots, side in sorted(icache_grid.items()):
            self.measurement.warm_miss_cube(
                "I", sorted(side["blocks"]), max(side["words"]), slots=slots
            )
        if dcache_grid["blocks"]:
            self.measurement.warm_miss_cube(
                "D", sorted(dcache_grid["blocks"]), max(dcache_grid["words"])
            )
        self.measurement.executor.retire_pool(wait=True)

    def sweep(self, configs: Iterable[SystemConfig]) -> List[DesignPoint]:
        """Evaluate many configurations (in input order).

        Misses for the whole grid come from one miss cube per stream
        family, built before evaluation; every per-point miss lookup is
        then a read of the session's planes.
        """
        configs = list(configs)
        with self.tracer.span("optimizer.sweep") as span:
            span.count("configs", len(configs))
            job_config = self.measurement.job_config
            if job_config is not None and len(configs) > 1:
                from repro.jobs.runner import JobRunner

                JobRunner(self, job_config).run(configs)
            else:
                self._warm_miss_cubes(configs)
            return [self.evaluate(config) for config in configs]

    def symmetric_grid(
        self,
        base: SystemConfig,
        slot_pairs: Sequence[Tuple[int, int]] = ((0, 0), (1, 1), (2, 2), (3, 3)),
        side_sizes_kw: Sequence[float] = PAPER_SIDE_SIZES_KW,
    ) -> List[SystemConfig]:
        """The Figure 12/13 grid: equal split, (b, l) pairs x sizes."""
        return [
            replace(base, branch_slots=b, load_slots=l, icache_kw=size, dcache_kw=size)
            for (b, l) in slot_pairs
            for size in side_sizes_kw
        ]

    def asymmetric_grid(
        self,
        base: SystemConfig,
        icache_sizes_kw: Sequence[float] = PAPER_SIDE_SIZES_KW,
        dcache_sizes_kw: Sequence[float] = PAPER_SIDE_SIZES_KW,
        branch_slots: Sequence[int] = (0, 1, 2, 3),
        load_slots: Sequence[int] = (0, 1, 2, 3),
    ) -> List[SystemConfig]:
        """The full asymmetric space behind the paper's Fig 13 remark
        (larger, deeper-pipelined L1-I beats the symmetric split at small
        refill penalties)."""
        return [
            replace(
                base,
                branch_slots=b,
                load_slots=l,
                icache_kw=isize,
                dcache_kw=dsize,
            )
            for b in branch_slots
            for l in load_slots
            for isize in icache_sizes_kw
            for dsize in dcache_sizes_kw
        ]

    def _scored_sweep(self, configs: Sequence[SystemConfig]) -> Tuple[DesignPoint, ...]:
        """One scored pass per config set, shared across selections.

        ``best(grid)`` followed by ``select(grid, objective="frontier")``
        (or any other objective over the same grid) reuses the scored
        points instead of re-entering :meth:`sweep` — the per-point store
        hits are cheap but not free, and a second ``optimizer.sweep`` span
        would misreport the work done.
        """
        key = tuple(configs)
        if self._scored is None or self._scored[0] != key:
            self._scored = (key, tuple(self.sweep(configs)))
        return self._scored[1]

    def select(
        self,
        configs: Iterable[SystemConfig],
        objective: str = "tpi",
        weights: "Dict[str, float] | None" = None,
        max_area_cm2: "float | None" = None,
        max_power_w: "float | None" = None,
    ) -> Selection:
        """Score a design space once and select against ``objective``.

        ``objective`` is one of ``tpi`` / ``epi`` / ``edp`` (scalar
        minimization), ``frontier`` (the whole Pareto set; ``best`` is
        None), or ``weighted`` with a ``weights`` mapping over
        ``tpi`` / ``epi`` / ``area``.  Budgets filter the eligible set
        before any selection; an empty feasible set is an error for
        scalar objectives and an empty frontier otherwise.
        """
        points = self._scored_sweep(list(configs))
        if not points:
            raise ConfigurationError("cannot optimize over an empty design space")
        eligible = tuple(
            within_budgets(points, max_area_cm2=max_area_cm2, max_power_w=max_power_w)
        )
        if not eligible and objective != "frontier":
            raise ConfigurationError(
                "no design point satisfies the area/power budgets "
                f"(max_area_cm2={max_area_cm2}, max_power_w={max_power_w})"
            )
        with self.tracer.span(
            "optimizer.frontier", objective=objective
        ) as span:
            span.count("eligible", len(eligible))
            frontier = tuple(pareto_frontier(eligible))
            span.count("frontier", len(frontier))
        if objective == "frontier":
            best = None
        elif objective == "weighted":
            best = scalarized_best(eligible, weights or {})
        else:
            best = min(
                eligible,
                key=lambda point: (objective_value(point, objective), point_order_key(point)),
            )
        return Selection(
            objective=objective,
            points=points,
            eligible=eligible,
            frontier=frontier,
            best=best,
        )

    def best(self, configs: Iterable[SystemConfig]) -> DesignPoint:
        """The minimum-TPI point of a set.

        Ties are broken deterministically by :func:`point_order_key`
        (cycle time, then energy, area, combined capacity, slot counts),
        so the reported optimum is independent of grid order and of
        whether the run was resumed.
        """
        points = self._scored_sweep(list(configs))
        if not points:
            raise ConfigurationError("cannot optimize over an empty design space")
        return min(points, key=point_order_key)

    def optimize_symmetric(self, base: SystemConfig) -> DesignPoint:
        """Optimum over the paper's symmetric (b = l focus) grid."""
        return self.best(self.symmetric_grid(base))
