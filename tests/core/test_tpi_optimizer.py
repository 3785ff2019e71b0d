"""TPI, cycle-time combination, and optimizer tests."""

import dataclasses

import pytest

from repro.core import (
    DesignOptimizer,
    SuiteMeasurement,
    SystemConfig,
    relative_tpi_change,
    system_cycle_time_ns,
    tpi_ns,
)
from repro.core.config import LoadScheme
from repro.core.optimizer import DesignPoint, point_order_key
from repro.core.tcpu import side_cycle_times_ns
from repro.core.tpi import required_tcpu_reduction
from repro.engine.executor import SweepExecutor
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.workload import benchmark_by_name


class TestTpi:
    def test_equation_one(self):
        assert tpi_ns(2.0, 3.5) == 7.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            tpi_ns(0, 3.5)

    def test_equation_seven_first_order(self):
        change = relative_tpi_change(2.0, 2.1, 4.0, 3.8)
        assert change == pytest.approx(0.05 - 0.05)

    def test_required_reduction(self):
        # A 10 % CPI increase needs ~9.1 % cycle-time reduction.
        assert required_tcpu_reduction(2.0, 2.2) == pytest.approx(1 - 2.0 / 2.2)

    def test_required_reduction_breaks_even(self):
        cpi_before, cpi_after = 2.0, 2.3
        reduction = required_tcpu_reduction(cpi_before, cpi_after)
        tcpu = 4.0
        assert cpi_after * tcpu * (1 - reduction) == pytest.approx(cpi_before * tcpu)


class TestSystemCycleTime:
    def test_max_of_sides(self):
        config = SystemConfig(icache_kw=32, dcache_kw=1, branch_slots=1, load_slots=3)
        icache, dcache = side_cycle_times_ns(config)
        assert system_cycle_time_ns(config) == max(icache, dcache)
        assert icache > dcache  # big unpipelined-ish I side dominates

    def test_balanced_deep_pipeline_hits_alu_floor(self):
        config = SystemConfig(icache_kw=8, dcache_kw=8, branch_slots=3, load_slots=3)
        assert system_cycle_time_ns(config) == pytest.approx(3.5, abs=0.01)

    def test_unbalanced_pipelining_is_wasted(self):
        # Deepening only one side cannot beat the slower side's clock.
        balanced = SystemConfig(icache_kw=32, dcache_kw=32, branch_slots=2, load_slots=2)
        lopsided = dataclasses.replace(balanced, branch_slots=3)
        assert system_cycle_time_ns(lopsided) == pytest.approx(
            side_cycle_times_ns(lopsided)[1]
        )


class TestOptimizer:
    @pytest.fixture(scope="class")
    def optimizer(self, measurement):
        return DesignOptimizer(measurement)

    def test_evaluate_point(self, optimizer):
        point = optimizer.evaluate(SystemConfig(penalty=10))
        assert point.cpi > 1.0
        assert point.tpi_ns == pytest.approx(point.cpi * point.cycle_time_ns)

    def test_symmetric_grid_shape(self, optimizer):
        grid = optimizer.symmetric_grid(SystemConfig(penalty=10))
        assert len(grid) == 4 * 6
        assert all(c.icache_kw == c.dcache_kw for c in grid)

    def test_asymmetric_grid_shape(self, optimizer):
        grid = optimizer.asymmetric_grid(
            SystemConfig(penalty=10),
            icache_sizes_kw=(8, 16),
            dcache_sizes_kw=(8,),
            branch_slots=(2, 3),
            load_slots=(2,),
        )
        assert len(grid) == 4

    def test_best_rejects_empty(self, optimizer):
        with pytest.raises(ConfigurationError):
            optimizer.best([])

    def test_pipelined_beats_unpipelined(self, optimizer):
        """The headline claim: 2-3 cache pipeline stages beat 0-1."""
        base = SystemConfig(penalty=10)
        best = optimizer.optimize_symmetric(base)
        assert best.config.branch_slots >= 2
        assert best.config.load_slots >= 2
        shallow = optimizer.evaluate(
            dataclasses.replace(base, branch_slots=0, load_slots=0)
        )
        assert best.tpi_ns < 0.6 * shallow.tpi_ns

    def test_dynamic_loads_improve_tpi(self, optimizer):
        base = SystemConfig(penalty=10)
        static = optimizer.optimize_symmetric(base)
        dynamic = optimizer.optimize_symmetric(
            dataclasses.replace(base, load_scheme=LoadScheme.DYNAMIC)
        )
        assert dynamic.tpi_ns < static.tpi_ns

    def test_lower_penalty_improves_tpi(self, optimizer):
        best10 = optimizer.optimize_symmetric(SystemConfig(penalty=10))
        best6 = optimizer.optimize_symmetric(SystemConfig(penalty=6))
        assert best6.tpi_ns < best10.tpi_ns

    def test_higher_penalty_grows_optimal_cache(self, optimizer):
        best6 = optimizer.optimize_symmetric(SystemConfig(penalty=6))
        best18 = optimizer.optimize_symmetric(SystemConfig(penalty=18))
        assert best18.config.combined_l1_kw >= best6.config.combined_l1_kw

    def test_sweep_prewarms_the_cubes(self, measurement):
        from repro.core.measurement import MISS_CUBE_VERSION

        optimizer = DesignOptimizer(measurement)
        base = SystemConfig(penalty=10)
        configs = [
            dataclasses.replace(base, icache_kw=kw, dcache_kw=kw) for kw in (4, 8)
        ]
        optimizer.sweep(configs)
        # The sweep must have left whole-cube artifacts behind for both
        # sides, keyed by the canonical (paper-grid) capacity and ways.
        assert (
            measurement.store.peek(
                "dmiss_cube",
                MISS_CUBE_VERSION,
                blocks="4",
                capacity_words=32 * 1024,
                max_ways=8,
            )
            is not None
        )
        assert (
            measurement.store.peek(
                "imiss_cube",
                MISS_CUBE_VERSION,
                slots=base.branch_slots,
                blocks="4",
                capacity_words=32 * 1024,
                max_ways=8,
            )
            is not None
        )

    def test_best_independent_of_grid_order(self, optimizer):
        grid = optimizer.symmetric_grid(SystemConfig(penalty=10))
        assert optimizer.best(grid) == optimizer.best(list(reversed(grid)))


class TestPointOrderKey:
    def _point(self, cpi, cycle, **config):
        return DesignPoint(
            config=SystemConfig(**config), cpi=cpi, cycle_time_ns=cycle
        )

    def test_lower_tpi_wins(self):
        slow = self._point(2.0, 4.0, penalty=10)
        fast = self._point(1.9, 4.0, penalty=10)
        assert point_order_key(fast) < point_order_key(slow)

    def test_equal_tpi_prefers_faster_clock(self):
        # 2.0 x 4.0 == 4.0 x 2.0: the faster clock is the better design.
        wide = self._point(2.0, 4.0, penalty=10)
        deep = self._point(4.0, 2.0, penalty=10)
        assert point_order_key(deep) < point_order_key(wide)

    def test_equal_tpi_and_clock_prefers_smaller_cache(self):
        small = self._point(2.0, 4.0, icache_kw=8, dcache_kw=8)
        big = self._point(2.0, 4.0, icache_kw=16, dcache_kw=16)
        assert point_order_key(small) < point_order_key(big)

    def test_then_fewer_slots(self):
        shallow = self._point(2.0, 4.0, branch_slots=1, load_slots=1)
        deep = self._point(2.0, 4.0, branch_slots=2, load_slots=1)
        assert point_order_key(shallow) < point_order_key(deep)

    def _scored(self, epi, area, **config):
        return DesignPoint(
            config=SystemConfig(**config),
            cpi=2.0,
            cycle_time_ns=4.0,
            epi_nj=epi,
            area_cm2=area,
        )

    def test_equal_timing_prefers_lower_energy(self):
        # Energy outranks area and geometry in the tie-break chain.
        lean = self._scored(5.0, 9.0, icache_kw=16, dcache_kw=16)
        hot = self._scored(6.0, 1.0, icache_kw=8, dcache_kw=8)
        assert point_order_key(lean) < point_order_key(hot)

    def test_equal_timing_and_energy_prefers_smaller_area(self):
        small = self._scored(5.0, 8.0, icache_kw=16, dcache_kw=16)
        big = self._scored(5.0, 9.0, icache_kw=8, dcache_kw=8)
        assert point_order_key(small) < point_order_key(big)

    def test_unscored_points_keep_the_geometry_order(self):
        # Hand-built points (epi/area default 0.0) still sort totally.
        small = self._point(2.0, 4.0, icache_kw=8, dcache_kw=8)
        big = self._point(2.0, 4.0, icache_kw=16, dcache_kw=16)
        assert point_order_key(small) < point_order_key(big)


class TestSharedScoredPass:
    def test_best_and_frontier_share_one_sweep(self, measurement):
        tracer = Tracer()
        previous = measurement.tracer
        measurement.attach_tracer(tracer)
        try:
            optimizer = DesignOptimizer(measurement)
            grid = optimizer.symmetric_grid(SystemConfig(penalty=10))
            best = optimizer.best(grid)
            frontier = optimizer.frontier(grid)
            selection = optimizer.select(grid, objective="epi")
        finally:
            measurement.attach_tracer(previous)
        sweeps = [s for s in tracer.to_list() if s["name"] == "optimizer.sweep"]
        assert len(sweeps) == 1  # second and third queries reuse the pass
        assert best in selection.points
        assert all(p in selection.points for p in frontier)
        assert min(selection.points, key=point_order_key) == best

    def test_best_on_frontier_of_its_own_objective(self, measurement):
        optimizer = DesignOptimizer(measurement)
        grid = optimizer.symmetric_grid(SystemConfig(penalty=10))
        best = optimizer.best(grid)
        frontier_keys = {point_order_key(p) for p in optimizer.frontier(grid)}
        assert point_order_key(best) in frontier_keys


class TestParallelParity:
    def test_jobs_do_not_change_scores(self):
        # --jobs 1 vs --jobs 4 must hand back bit-identical points,
        # including the physical axes the workers now carry home.
        def tiny(**kwargs):
            specs = [benchmark_by_name(name) for name in ("small", "yacc")]
            return SuiteMeasurement(
                specs=specs,
                total_instructions=60_000,
                min_benchmark_instructions=30_000,
                use_disk_cache=False,
                **kwargs,
            )

        def fingerprint(points):
            return [
                (p.config, p.cpi, p.cycle_time_ns, p.epi_nj, p.area_cm2)
                for p in points
            ]

        serial = DesignOptimizer(tiny())
        parallel = DesignOptimizer(tiny(executor=SweepExecutor(jobs=4)))
        grid = serial.symmetric_grid(SystemConfig(penalty=10))
        assert fingerprint(serial.sweep(grid)) == fingerprint(
            parallel.sweep(list(grid))
        )
        assert [point_order_key(p) for p in serial.frontier(grid)] == [
            point_order_key(p) for p in parallel.frontier(list(grid))
        ]


class _BrokenPoolExecutor(SweepExecutor):
    """Parallel-looking executor whose pool dies on design-point sweeps.

    Trace synthesis (also fanned out through the session's executor)
    runs in-process so the session still builds; only the optimizer's
    sweep dispatch hits the scripted persistent crash.
    """

    def __init__(self):
        super().__init__(jobs=2)
        self.maps = 0

    def prime(self, digest, session):
        pass

    def map(self, fn, items):
        from repro.engine.executor import evaluate_design_point

        if fn is evaluate_design_point:
            self.maps += 1
            raise ConfigurationError(
                "sweep worker pool crashed twice (scripted)"
            )
        return [fn(item) for item in items]


class TestSerialFallback:
    def _tiny(self, **kwargs):
        specs = [benchmark_by_name(name) for name in ("small", "yacc")]
        return SuiteMeasurement(
            specs=specs,
            total_instructions=60_000,
            min_benchmark_instructions=30_000,
            use_disk_cache=False,
            **kwargs,
        )

    def _find_span(self, spans, name):
        for span in spans:
            if span.name == name:
                return span
            found = self._find_span(span.children, name)
            if found is not None:
                return found
        return None

    def test_pool_crash_falls_back_to_serial(self):
        # Regression: a twice-crashed pool used to abort the whole sweep;
        # now the optimizer finishes serially and flags the degradation.
        grid_of = lambda opt: opt.symmetric_grid(SystemConfig(penalty=10))
        serial_opt = DesignOptimizer(self._tiny())
        expected = serial_opt.sweep(grid_of(serial_opt))
        tracer = Tracer()
        broken = _BrokenPoolExecutor()
        fallback_opt = DesignOptimizer(self._tiny(executor=broken, tracer=tracer))
        points = fallback_opt.sweep(grid_of(fallback_opt))
        assert broken.maps == 1  # the pool was tried, then given up on
        assert [(p.config, p.cpi, p.cycle_time_ns) for p in points] == [
            (p.config, p.cpi, p.cycle_time_ns) for p in expected
        ]
        span = self._find_span(tracer.roots, "optimizer.serial_fallback")
        assert span is not None
        assert span.counters["points"] == len(grid_of(fallback_opt))
        assert "crashed" in span.attrs["reason"]
