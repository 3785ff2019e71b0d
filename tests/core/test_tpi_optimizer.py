"""TPI, cycle-time combination, and optimizer tests."""

import dataclasses
import os

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
from repro.core.frontier import objective_value, pareto_frontier
from repro.core.optimizer import DesignPoint, point_order_key
from repro.core.tcpu import side_cycle_times_ns
from repro.core.tpi import required_tcpu_reduction
import repro.cache.cubepart as cubepart
from repro.engine.executor import SweepExecutor
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.workload import benchmark_by_name
from tests.cache.test_cubepart import _spans, dying_in_workers, span_names


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

    def test_sweep_prewarms_the_cubes(self, monkeypatch, tmp_path):
        # The sweep must build both sides' planes, at the canonical
        # (paper-grid) capacity and ways: reading either side's cube and
        # any covered miss count afterwards builds nothing more, and the
        # miss count reads no store entry.
        builds, _ = _log_session_work(monkeypatch, tmp_path)
        session = _small_session(SweepExecutor())
        base = SystemConfig(penalty=10)
        DesignOptimizer(session).sweep(
            [dataclasses.replace(base, icache_kw=kw, dcache_kw=kw) for kw in (4, 8)]
        )
        assert len(builds.read_text().split()) == 2
        lookups = session.store.stats().lookups
        session.misses("I", 4, 32, ways=8, slots=base.branch_slots)
        session.misses("D", 4, 32, ways=8)
        assert session.store.stats().lookups == lookups
        session.icache_miss_cube(base.branch_slots, (4,))
        session.dcache_miss_cube((4,))
        assert len(builds.read_text().split()) == 2

    def test_sweep_reuses_a_cube_that_covers_its_blocks(self):
        # A wider D cube built first (blocks 4/8/16) answers a B = 4
        # grid; the warm-up must not build a narrower duplicate of it.
        session = SuiteMeasurement(
            specs=[benchmark_by_name("small")],
            total_instructions=60_000,
            min_benchmark_instructions=30_000,
        )
        session.dcache_miss_cube((4, 8, 16))
        tracer = Tracer()
        session.attach_tracer(tracer)
        DesignOptimizer(session).sweep(
            [SystemConfig(penalty=10, dcache_kw=kw) for kw in (1, 8, 32)]
        )
        names = span_names(tracer.roots)
        assert "imiss.cube" in names
        assert "dmiss.cube" not in names

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
            frontier = optimizer.select(grid, objective="frontier").frontier
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
        frontier = optimizer.select(grid, objective="frontier").frontier
        frontier_keys = {point_order_key(p) for p in frontier}
        assert point_order_key(best) in frontier_keys

    @pytest.fixture(scope="class")
    def asymmetric(self, measurement):
        """An optimizer, its asymmetric grid, and a fresh optimizer's sweep."""
        optimizer = DesignOptimizer(measurement)
        grid = optimizer.asymmetric_grid(SystemConfig())
        fresh = DesignOptimizer(measurement).sweep(grid)
        return optimizer, grid, fresh

    @pytest.mark.parametrize("objective", ["tpi", "epi", "edp"])
    def test_shared_pass_best_equals_a_fresh_sweep(self, asymmetric, objective):
        optimizer, grid, fresh = asymmetric
        winner = min(
            fresh,
            key=lambda p: (objective_value(p, objective), point_order_key(p)),
        )
        assert optimizer.select(grid, objective=objective).best == winner

    def test_shared_pass_frontier_equals_a_fresh_sweep(self, asymmetric):
        optimizer, grid, fresh = asymmetric
        frontier = optimizer.select(grid, objective="frontier").frontier
        assert list(frontier) == pareto_frontier(fresh)


def _tiny(**kwargs):
    specs = [benchmark_by_name(name) for name in ("small", "yacc")]
    return SuiteMeasurement(
        specs=specs,
        total_instructions=60_000,
        min_benchmark_instructions=30_000,
        **kwargs,
    )


def _fingerprint(points):
    return [(p.config, p.cpi, p.cycle_time_ns, p.epi_nj, p.area_cm2) for p in points]


class TestParallelParity:
    def test_jobs_do_not_change_scores(self):
        # --jobs 1 vs --jobs 4 must hand back bit-identical points,
        # including the physical axes, whichever pool built the planes.
        serial = DesignOptimizer(_tiny())
        parallel = DesignOptimizer(_tiny(executor=SweepExecutor(jobs=4)))
        grid = serial.symmetric_grid(SystemConfig(penalty=10))
        assert _fingerprint(serial.sweep(grid)) == _fingerprint(
            parallel.sweep(list(grid))
        )
        assert (
            serial.select(grid, objective="frontier").frontier
            == parallel.select(list(grid), objective="frontier").frontier
        )

    def test_a_sweep_stays_in_the_parent(self):
        # With its planes built, a 2-job session's sweep maps nothing on
        # its pool: every point is evaluated here, under the sweep span.
        session = _tiny(executor=SweepExecutor(jobs=2))
        try:
            for slots in range(4):
                session.icache_miss_cube(slots, (4,))
            session.dcache_miss_cube((4,))
            tracer = Tracer()
            session.attach_tracer(tracer)
            optimizer = DesignOptimizer(session)
            grid = optimizer.symmetric_grid(SystemConfig(penalty=10))
            points = optimizer.sweep(grid)
        finally:
            session.executor.retire_pool(wait=True)
        (sweep,) = _spans(tracer.roots, "optimizer.sweep")
        assert _spans([sweep], "executor.map") == []
        assert len(grid) == 24
        evaluated = sum(span.counters.get("design_points", 0) for span in _spans([sweep]))
        assert evaluated == 24
        serial = DesignOptimizer(_tiny())
        assert _fingerprint(points) == _fingerprint(serial.sweep(grid))

    def test_parallel_sweeps_build_each_cube_once_in_the_parent(
        self, monkeypatch, tmp_path
    ):
        # The driver runs once per stream family, in this process (only
        # its tasks go to the pool), and a second sweep of the same grid
        # (every point cached) builds none.
        builds, loads = _log_session_work(monkeypatch, tmp_path)
        executor = SweepExecutor(jobs=2)
        try:
            session = _small_session(executor)
            optimizer = DesignOptimizer(session)
            grid = optimizer.symmetric_grid(
                SystemConfig(penalty=10),
                slot_pairs=((0, 0), (1, 1)),
                side_sizes_kw=(1, 2, 4),
            )
            first = optimizer.sweep(grid)
            second = optimizer.sweep(grid)
        finally:
            session.executor.retire_pool(wait=True)
        assert first == second
        # One I cube per branch-slot count and one D cube, all here.
        assert builds.read_text().split() == [str(os.getpid())] * 3
        # Each benchmark loaded once, here.
        assert loads.read_text().split() == [str(os.getpid())] * len(session.specs)

    def test_a_pool_forked_earlier_sees_cubes_built_later(
        self, monkeypatch, tmp_path
    ):
        # The second sweep adds a slot count: its I plane is the only new
        # build, made after the first sweep's warm retired the pool.
        log, _ = _log_session_work(monkeypatch, tmp_path)
        executor = SweepExecutor(jobs=2)
        session = _small_session(executor)
        try:
            optimizer = DesignOptimizer(session)
            for pairs in (((0, 0),), ((0, 0), (2, 2))):
                optimizer.sweep(
                    optimizer.symmetric_grid(
                        SystemConfig(penalty=10),
                        slot_pairs=pairs,
                        side_sizes_kw=(1, 2, 4),
                    )
                )
        finally:
            session.executor.retire_pool(wait=True)
        # I cubes at 0 and 2 slots and one D cube, all here.
        assert log.read_text().split() == [str(os.getpid())] * 3

    def test_a_pool_forked_earlier_sees_a_data_side_rebuild(
        self, monkeypatch, tmp_path
    ):
        # The second sweep needs only a wider D plane (64 KW): the one
        # new build, whose address bundle maps back from the store.
        log, _ = _log_session_work(monkeypatch, tmp_path)
        executor = SweepExecutor(jobs=2)
        session = _small_session(executor)
        try:
            optimizer = DesignOptimizer(session)
            for dcache_kw in (4, 64):
                optimizer.sweep(
                    optimizer.asymmetric_grid(
                        SystemConfig(penalty=10),
                        icache_sizes_kw=(1, 2, 4),
                        dcache_sizes_kw=(dcache_kw,),
                        branch_slots=(0,),
                        load_slots=(0,),
                    )
                )
        finally:
            session.executor.retire_pool(wait=True)
        # One I plane, then the D plane at 32 KW and at 64 KW, all here.
        assert log.read_text().split() == [str(os.getpid())] * 3

    def test_durable_parallel_sweeps_build_cubes_in_the_parent(
        self, monkeypatch, tmp_path
    ):
        # A journaled sweep's shards warm their own planes: the first
        # shard of each slot count builds, the rest read.
        from repro.jobs import JobConfig

        log, _ = _log_session_work(monkeypatch, tmp_path)
        executor = SweepExecutor(jobs=2)
        session = _small_session(executor)
        try:
            session.attach_jobs(JobConfig(run_dir=tmp_path / "run", shard_size=4))
            optimizer = DesignOptimizer(session)
            points = optimizer.sweep(
                optimizer.symmetric_grid(
                    SystemConfig(penalty=10),
                    slot_pairs=((0, 0), (1, 1)),
                    side_sizes_kw=(1, 2, 4),
                )
            )
        finally:
            session.executor.retire_pool(wait=True)
        assert len(points) == 6
        assert log.read_text().split() == [str(os.getpid())] * 3


def _small_session(executor):
    return SuiteMeasurement(
        specs=[benchmark_by_name("small")],
        total_instructions=60_000,
        min_benchmark_instructions=30_000,
        executor=executor,
    )


def _log_session_work(monkeypatch, tmp_path):
    """Log the pid of every cube build and benchmark load to two files.

    The spies sit where the session looks the driver and the trace
    loader up, so forked workers run them too, and the files let the
    parent read their pids.  Returns the (builds, loads) log paths.
    """
    import repro.core.measurement as measurement_module

    builds, loads = tmp_path / "builds", tmp_path / "loads"

    def spy(real, log):
        def logged(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        return logged

    for name in ("partitioned_miss_cube", "partitioned_miss_cube_from_addresses"):
        monkeypatch.setattr(
            measurement_module, name, spy(getattr(measurement_module, name), builds)
        )
    monkeypatch.setattr(
        measurement_module,
        "load_or_run_trace",
        spy(measurement_module.load_or_run_trace, loads),
    )
    return builds, loads


class _TaskErrorExecutor(SweepExecutor):
    """Parallel-looking executor whose cube builds fail with a task's own
    ``error``.

    Trace synthesis (also fanned out through the session's executor)
    runs in-process so the session still builds; only the driver's
    task map hits the scripted error.
    """

    def __init__(self, error):
        super().__init__(jobs=2)
        self.maps = 0
        self.error = error

    def map(self, fn, items, chunk_size=None):
        if fn is cubepart._run_task:
            self.maps += 1
            raise self.error
        return [fn(item) for item in items]


class TestSerialFallback:
    def _find_span(self, spans, name):
        for span in spans:
            if span.name == name:
                return span
            found = self._find_span(span.children, name)
            if found is not None:
                return found
        return None

    def test_pool_crash_falls_back_to_serial(self, monkeypatch):
        # A sweep whose build pool dies for good (every task kills its
        # worker) still returns the serial sweep's points: the executor
        # runs the builds' tasks in the parent, and the session keeps its
        # executor for the rest of the run.
        grid_of = lambda opt: opt.symmetric_grid(SystemConfig(penalty=10))
        serial_opt = DesignOptimizer(_tiny())
        expected = serial_opt.sweep(grid_of(serial_opt))
        dying_in_workers(monkeypatch, {(kind, 4) for kind in cubepart.TASK_KINDS})
        tracer = Tracer()
        executor = SweepExecutor(jobs=2)
        measurement = _tiny(executor=executor)
        measurement.benchmarks
        measurement.attach_tracer(tracer)
        fallback_opt = DesignOptimizer(measurement)
        try:
            points = fallback_opt.sweep(grid_of(fallback_opt))
        finally:
            executor.retire_pool(wait=True)
        assert [(p.config, p.cpi, p.cycle_time_ns) for p in points] == [
            (p.config, p.cpi, p.cycle_time_ns) for p in expected
        ]
        span = self._find_span(tracer.roots, "executor.serial_fallback")
        assert span is not None
        assert "broke twice" in span.attrs["reason"]
        assert measurement.executor is executor

    def test_a_point_evaluated_in_the_parent_keeps_its_session(self):
        # Evaluating points in the parent leaves the session's executor
        # as it was: the sweep's warm retires the pool, not the executor,
        # so a later build forks a pool of the same width again.
        executor = SweepExecutor(jobs=2)
        measurement = _tiny(executor=executor)
        optimizer = DesignOptimizer(measurement)
        config = SystemConfig(penalty=10)
        tracer = Tracer()
        try:
            (point,) = optimizer.sweep([config])
            assert measurement.executor is executor and executor.jobs == 2
            measurement.attach_tracer(tracer)
            measurement.icache_miss_cube(1, (4,))
        finally:
            executor.retire_pool(wait=True)
        assert point == optimizer.evaluate(config)
        (build,) = _spans(tracer.roots, "imiss.cube")
        (forked,) = _spans([build], "executor.map")
        assert forked.counters["pool_forks"] == 1

    def test_a_task_error_is_no_pool_crash(self):
        # A ConfigurationError a build task raises itself surfaces as
        # raised: the build is not re-run in the parent.
        tracer = Tracer()
        broken = _TaskErrorExecutor(ConfigurationError("a task failed"))
        opt = DesignOptimizer(_tiny(executor=broken, tracer=tracer))
        with pytest.raises(ConfigurationError, match="a task failed"):
            opt.sweep(opt.symmetric_grid(SystemConfig(penalty=10)))
        assert broken.maps == 1
        assert self._find_span(tracer.roots, "executor.serial_fallback") is None
