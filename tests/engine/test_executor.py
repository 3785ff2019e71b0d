"""SweepExecutor tests: backends, ordering, and session equivalence.

The process-backend equivalence tests are the contract a session's
worker pool rests on: a session on a ``serial`` executor and one on a
``process`` executor must build identical traces and planes, and so
produce identical DesignPoint lists (same order, same TPI values) on the
Figure 12 grid.
"""

import os

import numpy as np
import pytest

from repro.core import DesignOptimizer, SuiteMeasurement, SystemConfig
from repro.core import measurement as measurement_module
from repro.engine import executor as executor_module
from repro.engine.executor import SweepExecutor
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.obs.tracer import Tracer
from repro.workload import benchmark_by_name


#: This test process: forked workers inherit the value, so a task can
#: tell a worker from the parent that finishes a dead pool's chunks.
_PARENT_PID = os.getpid()


def _square(value):
    """Module-level so the process backend can pickle it."""
    return value * value


def _exit_hard(value):
    """Dies without cleanup in a worker (simulates an OOM kill); the
    parent, finishing a dead pool's chunks, squares."""
    if os.getpid() != _PARENT_PID:
        os._exit(13)
    return value * value


def _log_then_exit_from(item):
    """Logs ``pid value`` and squares, except that a worker dies on every
    value from ``first_exit`` on."""
    log, first_exit, value = item
    if value >= first_exit and os.getpid() != _PARENT_PID:
        os._exit(13)
    with open(log, "a") as handle:
        handle.write(f"{os.getpid()} {value}\n")
    return value * value


def _log_then_raise_at_three(item):
    log, value = item
    with open(log, "a") as handle:
        handle.write(f"{value}\n")
    if value == 3:
        raise ValueError("item 3 failed on its own")
    return value * value


def _crash_until_flag(item):
    """Dies until the flag file exists; idempotent across retries."""
    flag, value = item
    if not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("crashed once")
        os._exit(1)
    return value * value


def _log_then_crash_at_five(item):
    """Logs each execution; dies (once) on item 5 before logging it."""
    log, flag, value = item
    if value == 5 and not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("crashed once")
        os._exit(1)
    with open(log, "a") as handle:
        handle.write(f"{value}\n")
    return value * value


def _tiny_measurement(executor=None, store=None):
    specs = [benchmark_by_name(name) for name in ("small", "yacc")]
    return SuiteMeasurement(
        specs=specs,
        total_instructions=60_000,
        min_benchmark_instructions=30_000,
        store=store,
        executor=executor,
    )


def _fig12_points(optimizer):
    grid = optimizer.symmetric_grid(SystemConfig(penalty=10))
    return optimizer.sweep(grid)


class TestConstruction:
    def test_defaults(self):
        assert SweepExecutor().is_serial
        assert SweepExecutor(jobs=4).is_parallel
        assert SweepExecutor(jobs=4).jobs == 4

    def test_explicit_backend(self):
        assert SweepExecutor(jobs=1, backend="process").is_parallel
        assert SweepExecutor(jobs=1, backend="serial").is_serial

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=0)
        with pytest.raises(ConfigurationError):
            SweepExecutor(backend="threads")


class TestSerialMap:
    def test_order_and_values(self):
        executor = SweepExecutor()
        assert executor.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty(self):
        assert SweepExecutor().map(_square, []) == []


class TestProcessMap:
    def test_order_preserved(self):
        executor = SweepExecutor(jobs=2)
        try:
            assert executor.map(_square, list(range(20))) == [
                n * n for n in range(20)
            ]
        finally:
            executor.retire_pool(wait=True)

    def test_chunked_dispatch_matches(self):
        executor = SweepExecutor(jobs=2)
        try:
            assert executor.map(_square, list(range(10)), chunk_size=3) == [
                n * n for n in range(10)
            ]
        finally:
            executor.retire_pool(wait=True)

    def test_a_map_counts_the_pool_it_forks(self):
        tracer = Tracer()
        executor = SweepExecutor(jobs=2)
        executor.tracer = tracer
        try:
            executor.map(_square, [1, 2, 3])
            executor.map(_square, [4, 5, 6])  # the live pool, reused
            executor.retire_pool(wait=True)
            executor.map(_square, [7, 8, 9])
        finally:
            executor.retire_pool(wait=True)
        forks = [span.counters.get("pool_forks", 0) for span in tracer.roots]
        assert forks == [1, 0, 1]


class TestShutdownRetirement:
    def test_retire_pool_can_wait_until_the_workers_are_reaped(self):
        executor = SweepExecutor(jobs=2)
        assert executor.map(_square, list(range(8))) == [n * n for n in range(8)]
        workers = list(executor._pool._processes.values())
        executor.retire_pool(wait=True)
        assert workers and all(w.exitcode is not None for w in workers)
        assert executor.map(_square, [3, 4]) == [9, 16]
        executor.retire_pool(wait=True)


class TestDefaultChunk:
    def test_chunk_never_exceeds_item_count(self):
        for jobs in (1, 2, 4, 8):
            executor = SweepExecutor(jobs=jobs, backend="process")
            for count in range(1, 65):
                assert 1 <= executor._default_chunk(count) <= count

    def test_every_worker_can_get_a_chunk(self):
        # Distribution property: tiny sweeps must still fan out — the
        # chunking yields at least min(count, jobs) chunks, so no single
        # worker serializes the whole sweep.
        for jobs in (1, 2, 3, 4, 8, 16):
            executor = SweepExecutor(jobs=jobs, backend="process")
            for count in range(1, 129):
                chunk = executor._default_chunk(count)
                n_chunks = -(-count // chunk)
                assert n_chunks >= min(count, jobs), (count, jobs, chunk)

    def test_degenerate_count_is_safe(self):
        executor = SweepExecutor(jobs=4, backend="process")
        assert executor._default_chunk(0) == 1


class TestBrokenPoolRecovery:
    def _executions(self, log):
        with open(log) as handle:
            return [tuple(map(int, line.split())) for line in handle]

    def test_persistent_crash_finishes_in_the_parent(self, tmp_path):
        # One worker and one-item chunks make the execution order
        # deterministic: items 0-2 complete in the worker, item 3 kills
        # it, and so it does on each of two fresh pools; then the parent
        # runs items 3-7 itself, once each, under one fallback span.
        log = str(tmp_path / "executions.log")
        tracer = Tracer()
        executor = SweepExecutor(jobs=1, backend="process")
        executor.tracer = tracer
        try:
            result = executor.map(
                _log_then_exit_from, [(log, 3, n) for n in range(8)], chunk_size=1
            )
        finally:
            executor.retire_pool(wait=True)
        assert result == [n * n for n in range(8)]
        executions = self._executions(log)
        assert sorted(value for _, value in executions) == list(range(8))
        in_parent = sorted(value for pid, value in executions if pid == os.getpid())
        assert in_parent == [3, 4, 5, 6, 7]
        (span,) = tracer.roots
        assert span.counters["pool_restarts"] == 3
        (fallback,) = span.children
        assert fallback.name == "executor.serial_fallback"
        assert fallback.counters["items"] == 5
        assert "broke twice" in fallback.attrs["reason"]
        assert executor._pool is None

    def test_executor_usable_after_pool_crash(self):
        tracer = Tracer()
        executor = SweepExecutor(jobs=2)
        executor.tracer = tracer
        try:
            assert executor.map(_exit_hard, list(range(8))) == [
                n * n for n in range(8)
            ]
            # Regression: the broken pool used to stay wedged in
            # self._pool, failing every later map() call too.
            assert executor.map(_square, list(range(6))) == [
                n * n for n in range(6)
            ]
        finally:
            executor.retire_pool(wait=True)
        dead, fresh = tracer.roots
        assert [child.name for child in dead.children] == [
            "executor.serial_fallback"
        ]
        assert dead.children[0].counters["items"] == 8
        assert fresh.counters["pool_forks"] == 1
        assert "pool_restarts" not in fresh.counters

    def test_a_task_error_surfaces_once_without_a_fallback(self, tmp_path):
        log = str(tmp_path / "executions.log")
        tracer = Tracer()
        executor = SweepExecutor(jobs=1, backend="process")
        executor.tracer = tracer
        try:
            with pytest.raises(ValueError, match="on its own"):
                executor.map(
                    _log_then_raise_at_three,
                    [(log, n) for n in range(8)],
                    chunk_size=1,
                )
        finally:
            executor.retire_pool(wait=True)
        assert [value for (value,) in self._executions(log)].count(3) == 1
        (span,) = tracer.roots
        assert span.children == []
        assert "pool_restarts" not in span.counters

    def test_completed_chunks_survive_worker_death(self, tmp_path):
        # Regression: map() used to re-dispatch the *whole* item list
        # after a BrokenProcessPool, re-running work whose futures had
        # already returned.  One worker and one-item chunks make the
        # execution order deterministic: items 0-4 complete, item 5
        # kills the worker once, 5-7 finish on the fresh pool.
        log = str(tmp_path / "executions.log")
        flag = str(tmp_path / "crashed-once")
        executor = SweepExecutor(jobs=1, backend="process")
        try:
            result = executor.map(
                _log_then_crash_at_five,
                [(log, flag, n) for n in range(8)],
                chunk_size=1,
            )
        finally:
            executor.retire_pool(wait=True)
        assert result == [n * n for n in range(8)]
        with open(log) as handle:
            executed = sorted(int(line) for line in handle.read().split())
        assert executed == list(range(8))  # each item ran exactly once

    def test_single_crash_recovers_on_retry(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        executor = SweepExecutor(jobs=2)
        try:
            result = executor.map(
                _crash_until_flag, [(flag, n) for n in range(8)]
            )
        finally:
            executor.retire_pool(wait=True)
        assert result == [n * n for n in range(8)]
        assert os.path.exists(flag)


class TestInjectedWorkerExit:
    def test_kills_exactly_one_worker_once(self):
        tracer = Tracer()
        executor = SweepExecutor(jobs=2)
        executor.tracer = tracer
        executor.inject_worker_exit(5)
        try:
            assert executor.map(_square, list(range(8))) == [
                n * n for n in range(8)
            ]
            assert executor.map(_square, list(range(8))) == [
                n * n for n in range(8)
            ]
        finally:
            executor.retire_pool(wait=True)
        killed, clean = tracer.roots
        assert killed.counters["pool_restarts"] == 1
        assert killed.children == []  # no parent fallback
        assert "pool_restarts" not in clean.counters  # the hook cleared

    def test_a_serial_map_never_fires_it(self):
        tracer = Tracer()
        executor = SweepExecutor()
        executor.tracer = tracer
        executor.inject_worker_exit(0)
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        (span,) = tracer.roots
        assert "pool_restarts" not in span.counters


class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def serial_points(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("trace-cache")
        mp = pytest.MonkeyPatch()
        mp.setenv("REPRO_CACHE_DIR", str(cache))
        yield _fig12_points(DesignOptimizer(_tiny_measurement()))
        mp.undo()

    def _assert_identical(self, serial, parallel):
        assert len(parallel) == len(serial)
        for a, b in zip(serial, parallel):
            assert a.config == b.config  # same order, same points
            assert a.cpi == b.cpi
            assert a.cycle_time_ns == b.cycle_time_ns
            assert a.tpi_ns == b.tpi_ns

    def test_process_backend_matches_serial(self, serial_points, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        measurement = _tiny_measurement(executor=SweepExecutor(jobs=2))
        try:
            parallel = _fig12_points(DesignOptimizer(measurement))
        finally:
            measurement.executor.retire_pool(wait=True)
        self._assert_identical(serial_points, parallel)

    @pytest.mark.parametrize("own_dir", [False, True], ids=["disk", "own-dir"])
    def test_spawned_workers_rebuild_the_session(self, monkeypatch, tmp_path, own_dir):
        # Spawned workers see nothing of the parent but their task items:
        # the prefetch's name the session's disk tier, and the builds'
        # their stream files in it.  Traces, planes and points match a
        # serial session's, whether the session sits on the default tier
        # or on its own directory; in the latter case the default tier
        # stays empty.
        default = tmp_path / "default"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
        serial = _tiny_measurement(store=ArtifactStore(cache_dir=tmp_path / "serial"))
        expected = _fig12_points(DesignOptimizer(serial))
        executor = SweepExecutor(jobs=2, start_method="spawn")
        store = ArtifactStore(cache_dir=tmp_path / "own") if own_dir else None
        spawned = _tiny_measurement(executor, store)
        try:
            points = _fig12_points(DesignOptimizer(spawned))
        finally:
            spawned.executor.retire_pool(wait=True)
        self._assert_identical(expected, points)
        for theirs, ours in zip(spawned.benchmarks, serial.benchmarks):
            assert np.array_equal(theirs.trace.block_ids, ours.trace.block_ids)
            assert np.array_equal(theirs.trace.went_taken, ours.trace.went_taken)
        assert spawned._planes.keys() == serial._planes.keys()
        for key, plane in serial._planes.items():
            theirs = spawned._planes[key]
            assert theirs.references == plane.references, key
            assert theirs.hits.keys() == plane.hits.keys(), key
            for sets, curve in plane.hits.items():
                assert np.array_equal(theirs.hits[sets], curve), (key, sets)
        if own_dir:
            assert not default.exists() or not any(default.iterdir())

    def _assert_serial_benchmarks(self, benchmarks, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = _tiny_measurement()
        for theirs, ours in zip(benchmarks, serial.benchmarks):
            assert np.array_equal(theirs.trace.block_ids, ours.trace.block_ids)
            assert np.array_equal(theirs.trace.went_taken, ours.trace.went_taken)
            assert theirs.trace.restarts == ours.trace.restarts
            programs = theirs.compiled.as_arrays(), ours.compiled.as_arrays()
            assert programs[0].keys() == programs[1].keys()
            for name, array in programs[1].items():
                assert np.array_equal(programs[0][name], array), name

    def test_parallel_benchmark_synthesis_matches(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        parallel = _tiny_measurement(executor=SweepExecutor(jobs=2))
        parallel_benchmarks = parallel.benchmarks
        parallel.executor.retire_pool(wait=True)
        self._assert_serial_benchmarks(parallel_benchmarks, monkeypatch, tmp_path)

    def test_a_dead_prefetch_pool_still_builds(self, monkeypatch, tmp_path):
        # Every prefetch worker dies: the executor synthesizes the
        # traces in the parent, and the session builds what a serial
        # one does.
        parent, real = os.getpid(), measurement_module.load_or_compile

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(measurement_module, "load_or_compile", dying)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        tracer = Tracer()
        parallel = _tiny_measurement(executor=SweepExecutor(jobs=2))
        parallel.attach_tracer(tracer)
        try:
            benchmarks = parallel.benchmarks
        finally:
            parallel.executor.retire_pool(wait=True)
        assert "executor.serial_fallback" in _span_names(tracer.roots)
        self._assert_serial_benchmarks(benchmarks, monkeypatch, tmp_path)

    def test_parallel_cold_start_synthesizes_in_workers_only(
        self, monkeypatch, tmp_path
    ):
        # Workers persist each compiled program next to its trace, so the
        # parent's build maps both bundles instead of re-synthesizing.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        tracer = Tracer()
        parallel = _tiny_measurement(executor=SweepExecutor(jobs=2))
        parallel.attach_tracer(tracer)
        try:
            benchmarks = parallel.benchmarks
        finally:
            parallel.executor.retire_pool(wait=True)
        names = _span_names(tracer.roots)
        assert "session.prefetch_traces" in names
        assert "program.synthesize" not in names
        stats = parallel.store.stats()
        assert stats.misses == 0
        assert stats.disk_hits == 2 * len(benchmarks)


def _span_names(spans):
    names = set()
    for span in spans:
        names.add(span.name)
        names |= _span_names(span.children)
    return names


class TestTeardownAccounting:
    """The ``__del__`` satellite: failures are counted, not swallowed."""

    def test_clean_del_records_nothing(self):
        before = executor_module.teardown_failures()
        SweepExecutor(backend="serial").__del__()
        assert executor_module.teardown_failures() == before

    def test_shutdown_failure_is_logged_and_counted(self, monkeypatch, caplog):
        executor = SweepExecutor(backend="serial")
        monkeypatch.setattr(
            executor,
            "retire_pool",
            lambda: (_ for _ in ()).throw(OSError("semaphore wedged")),
            raising=False,
        )
        before = executor_module.teardown_failures()
        with caplog.at_level("WARNING", logger="repro.engine.executor"):
            executor.__del__()
        assert executor_module.teardown_failures() == before + 1
        assert any("semaphore wedged" in rec.message for rec in caplog.records)
        # The executor object must stay collectable afterwards.
        monkeypatch.undo()
        executor.__del__()

    def test_runtime_error_also_counted(self, monkeypatch):
        executor = SweepExecutor(backend="serial")
        monkeypatch.setattr(
            executor,
            "retire_pool",
            lambda: (_ for _ in ()).throw(RuntimeError("interpreter teardown")),
            raising=False,
        )
        before = executor_module.teardown_failures()
        executor.__del__()
        assert executor_module.teardown_failures() == before + 1
        monkeypatch.undo()

    def test_unexpected_errors_still_surface(self, monkeypatch):
        """Only shutdown's real failure modes are narrowed; bugs raise."""
        executor = SweepExecutor(backend="serial")
        monkeypatch.setattr(
            executor,
            "retire_pool",
            lambda: (_ for _ in ()).throw(ValueError("a genuine bug")),
            raising=False,
        )
        before = executor_module.teardown_failures()
        with pytest.raises(ValueError):
            executor.__del__()
        assert executor_module.teardown_failures() == before
        monkeypatch.undo()
