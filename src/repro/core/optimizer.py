"""Design-space sweep and multilevel optimization (Section 5).

:class:`DesignOptimizer` evaluates TPI over a grid of design points —
delay-slot counts, cache sizes (symmetric or asymmetric splits), penalty,
and schemes — and returns the optimum, reproducing the search behind
Figures 12 and 13.

Evaluated points are content-addressed artifacts in the session's
:class:`~repro.engine.store.ArtifactStore`, so re-visiting a
configuration (the figures sweep overlapping grids) is a cache hit.  On
a parallel :class:`~repro.engine.executor.SweepExecutor`, :meth:`
DesignOptimizer.sweep` fans the not-yet-cached points out across worker
processes in deterministic chunks; workers rehydrate the measurement
session from its picklable spec plus the disk store (or inherit the live
session for free on fork platforms).  Results are identical to the
serial backend, in the same order.
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
from repro.engine.executor import SweepExecutor, evaluate_design_point
from repro.errors import ConfigurationError, WorkerPoolError
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
        executor: Sweep backend (default: the session's executor, so a
            ``--jobs N`` CLI flag propagates here without plumbing).
    """

    def __init__(
        self,
        measurement: SuiteMeasurement,
        tech: Technology = DEFAULT_TECHNOLOGY,
        executor: "SweepExecutor | None" = None,
        phys: PhysicalTechnology = DEFAULT_PHYSICAL,
    ) -> None:
        self.measurement = measurement
        self.model = CpiModel(measurement)
        self.tech = tech
        self.phys = phys
        self.physical = PhysicalModel(measurement, tech=tech, phys=phys)
        self.executor = executor if executor is not None else measurement.executor
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

    def _warm_miss_cubes(self, configs: Sequence[SystemConfig]) -> bool:
        """One single-pass miss cube per distinct stream family.

        A design grid revisits the same instruction/data streams at many
        (block size, cache size, ways) geometries; building the grid's
        miss planes up front — every block size of a family in one
        driver call — turns every per-point miss lookup during
        evaluation into a plane read, and surfaces the engine cost as
        its own spans instead of hiding it inside the first evaluated
        point.  Block sizes that planes built earlier already cover are
        skipped.  The warm ends the session's build phase: the sweep
        only reads planes (and at ``--jobs > 1`` forks its own pool
        next), so the build pool is retired and its workers reaped.
        Returns whether anything was built.
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
        built = False
        for slots, side in sorted(icache_grid.items()):
            built |= self.measurement.warm_miss_cube(
                "I", sorted(side["blocks"]), max(side["words"]), slots=slots
            )
        if dcache_grid["blocks"]:
            built |= self.measurement.warm_miss_cube(
                "D", sorted(dcache_grid["blocks"]), max(dcache_grid["words"])
            )
        self.measurement.retire_cube_pool()
        return built

    def _warm_and_prime(self, configs: Sequence[SystemConfig]):
        """Build the grid's miss cubes here, then prime the pool.

        Workers forked afterwards inherit the cubes instead of each
        building (and discarding) its own.  A pool an earlier sweep
        forked predates anything this warm builds, so it is retired, and
        its workers reaped, first: the next map forks workers that see
        the new planes.  Returns the session's spec.
        """
        if self._warm_miss_cubes(configs):
            self.executor.retire_pool(wait=True)
        spec = self.measurement.spec()
        self.executor.prime(spec.digest(), self.measurement)
        return spec

    def _prefill_parallel(self, configs: Sequence[SystemConfig]) -> bool:
        """Evaluate not-yet-cached points on the worker pool.

        Workers return finished :class:`DesignPoint` values which are
        stored under the same artifact keys the serial path uses, so the
        ordered assembly afterwards is pure cache hits either way.
        Returns True when the pool was dispatched.
        """
        store = self.measurement.store
        seen = set()
        missing = []
        for config in configs:
            if config in seen:
                continue
            seen.add(config)
            cached = store.peek(
                "design_point",
                DESIGN_POINT_VERSION,
                tech=self._tech_digest,
                **config_to_params(config),
            )
            if cached is None:
                missing.append(config)
        # A pool dispatch only pays off with at least one chunk per worker.
        if len(missing) < max(2, self.executor.jobs):
            return False
        self.tracer.count("prefilled", len(missing))
        spec = self._warm_and_prime(missing)
        try:
            points = self.executor.map(
                evaluate_design_point,
                [(spec, self.tech, self.phys, config) for config in missing],
            )
        except WorkerPoolError as exc:
            # The worker pool is persistently broken (repeated worker
            # deaths).  The sweep itself is still computable: fall back
            # to serial in-process evaluation of the missing points,
            # under a warning span so the degradation is visible in
            # profiles and the run ledger.
            with self.tracer.span(
                "optimizer.serial_fallback", reason=str(exc)
            ) as span:
                span.count("points", len(missing))
                for config in missing:
                    self.evaluate(config)
            return True
        for config, point in zip(missing, points):
            store.put(
                "design_point",
                DESIGN_POINT_VERSION,
                point,
                tech=self._tech_digest,
                **config_to_params(config),
            )
        return True

    def sweep(self, configs: Iterable[SystemConfig]) -> List[DesignPoint]:
        """Evaluate many configurations (in input order).

        Misses for the whole grid come from one miss cube per stream
        family, built before evaluation; every per-point miss lookup is
        then a read of the session's planes.
        """
        configs = list(configs)
        with self.tracer.span(
            "optimizer.sweep", backend=self.executor.backend
        ) as span:
            span.count("configs", len(configs))
            job_config = getattr(self.measurement, "job_config", None)
            if job_config is not None and len(configs) > 1:
                from repro.jobs.runner import JobRunner

                JobRunner(self, job_config).run(configs)
            else:
                prefilled = (
                    self.executor.is_parallel and self._prefill_parallel(configs)
                )
                if not prefilled:
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
