"""SweepExecutor tests: backends, ordering, and sweep equivalence.

The process-backend equivalence tests are the contract the tentpole
refactor rests on: ``serial`` and ``process`` executors must produce
identical DesignPoint lists (same order, same TPI values) on the
Figure 12 grid.
"""

import os

import numpy as np
import pytest

from repro.core import DesignOptimizer, SuiteMeasurement, SystemConfig
from repro.engine import executor as executor_module
from repro.engine.executor import SweepExecutor, retire_inherited
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError, WorkerPoolError
from repro.obs.tracer import Tracer
from repro.workload import benchmark_by_name


def _square(value):
    """Module-level so the process backend can pickle it."""
    return value * value


def _exit_hard(value):
    """Worker task that dies without cleanup (simulates an OOM kill)."""
    os._exit(13)


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


@pytest.fixture
def clean_fork_state():
    """Isolate and restore the module-global fork-inheritance table."""
    saved = dict(executor_module._FORK_INHERITED)
    executor_module._FORK_INHERITED.clear()
    yield executor_module._FORK_INHERITED
    executor_module._FORK_INHERITED.clear()
    executor_module._FORK_INHERITED.update(saved)


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
        with pytest.raises(ConfigurationError):
            SweepExecutor(chunk_size=0)


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
            executor.shutdown()

    def test_chunked_dispatch_matches(self):
        executor = SweepExecutor(jobs=2, chunk_size=3)
        try:
            assert executor.map(_square, list(range(10))) == [
                n * n for n in range(10)
            ]
        finally:
            executor.shutdown()

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
            executor.shutdown()
        forks = [span.counters.get("pool_forks", 0) for span in tracer.roots]
        assert forks == [1, 0, 1]


class TestPrimeRetirement:
    def test_priming_new_digest_retires_previous_session(self, clean_fork_state):
        # Regression: _FORK_INHERITED grew without bound — priming a new
        # scale leaked every previously primed warm session forever.
        executor = SweepExecutor(jobs=2)
        first, second = object(), object()
        executor.prime("digest-a", first)
        executor.prime("digest-b", second)
        assert clean_fork_state == {"digest-b": second}

    def test_priming_same_digest_replaces_session(self, clean_fork_state):
        executor = SweepExecutor(jobs=2)
        old, new = object(), object()
        executor.prime("digest-a", old)
        executor.prime("digest-a", new)
        assert clean_fork_state == {"digest-a": new}

    def test_repriming_same_session_is_noop(self, clean_fork_state):
        executor = SweepExecutor(jobs=2)
        session = object()
        executor.prime("digest-a", session)
        executor._ensure_pool()
        executor.prime("digest-a", session)
        # The no-op must not have retired the (still valid) pool.
        assert executor._pool is not None
        executor.shutdown()

    def test_retire_inherited_hook(self, clean_fork_state):
        executor = SweepExecutor(jobs=2)
        executor.prime("digest-a", object())
        retire_inherited("digest-other")  # unknown digest: no-op
        assert "digest-a" in clean_fork_state
        retire_inherited("digest-a")
        assert clean_fork_state == {}
        executor.prime("digest-b", object())
        retire_inherited()  # no argument: clear everything
        assert clean_fork_state == {}


class TestShutdownRetirement:
    def test_shutdown_retires_primed_session(self, clean_fork_state):
        # Regression: shutdown() released the pool but left the primed
        # session pinned in _FORK_INHERITED forever — with no pool left
        # to fork from, the pinned arrays were a pure leak.
        executor = SweepExecutor(jobs=2)
        executor.prime("digest-a", object())
        executor.shutdown()
        assert clean_fork_state == {}

    def test_shutdown_leaves_another_executors_primed_session(
        self, clean_fork_state
    ):
        # A cube build's own executor primes nothing; shutting it down
        # must not retire the session a sweep's executor primed.
        sweeping, building = SweepExecutor(jobs=2), SweepExecutor()
        session = object()
        sweeping.prime("digest-a", session)
        building.shutdown()
        assert clean_fork_state == {"digest-a": session}
        sweeping.shutdown()
        assert clean_fork_state == {}

    def test_retire_pool_keeps_the_primed_session(self, clean_fork_state):
        executor = SweepExecutor(jobs=2)
        session = object()
        executor.prime("digest-a", session)
        executor._ensure_pool()
        executor.retire_pool()
        assert executor._pool is None
        assert clean_fork_state == {"digest-a": session}
        executor.shutdown()

    def test_retire_pool_can_wait_until_the_workers_are_reaped(self):
        executor = SweepExecutor(jobs=2)
        assert executor.map(_square, list(range(8))) == [n * n for n in range(8)]
        workers = list(executor._pool._processes.values())
        executor.retire_pool(wait=True)
        assert workers and all(w.exitcode is not None for w in workers)
        assert executor.map(_square, [3, 4]) == [9, 16]
        executor.shutdown()


class TestNoNestedPools:
    def test_an_inherited_session_builds_in_the_worker(
        self, clean_fork_state, tmp_path
    ):
        # A forked sweep worker inherits the parent's session with both
        # executors' settings; a plane the worker has to rebuild must be
        # built in the worker, not on a build pool forked inside it.
        session = _tiny_measurement(
            SweepExecutor(jobs=2), ArtifactStore(cache_dir=tmp_path)
        )
        session.attach_cube_jobs(2)
        spec = session.spec()
        executor_module._FORK_INHERITED[spec.digest()] = session
        inherited = executor_module.session_for_spec(spec)
        assert inherited is session
        assert inherited.executor.is_serial
        assert inherited.cube_jobs == 1
        assert inherited._build_executor().is_serial


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
    def test_persistent_crash_raises_configuration_error(self):
        # A worker that always dies must surface a clean library error,
        # not a raw BrokenProcessPool, after one fresh-pool retry: the
        # ConfigurationError subclass that callers may fall back on.
        executor = SweepExecutor(jobs=2)
        try:
            with pytest.raises(WorkerPoolError, match="worker pool crashed"):
                executor.map(_exit_hard, list(range(8)))
        finally:
            executor.shutdown()

    def test_executor_usable_after_pool_crash(self):
        executor = SweepExecutor(jobs=2)
        try:
            with pytest.raises(ConfigurationError):
                executor.map(_exit_hard, list(range(8)))
            # Regression: the broken pool used to stay wedged in
            # self._pool, failing every later map() call too.
            assert executor.map(_square, list(range(6))) == [
                n * n for n in range(6)
            ]
        finally:
            executor.shutdown()

    def test_completed_chunks_survive_worker_death(self, tmp_path):
        # Regression: map() used to re-dispatch the *whole* item list
        # after a BrokenProcessPool, re-running work whose futures had
        # already returned.  One worker and one-item chunks make the
        # execution order deterministic: items 0-4 complete, item 5
        # kills the worker once, 5-7 finish on the fresh pool.
        log = str(tmp_path / "executions.log")
        flag = str(tmp_path / "crashed-once")
        executor = SweepExecutor(jobs=1, backend="process", chunk_size=1)
        try:
            result = executor.map(
                _log_then_crash_at_five, [(log, flag, n) for n in range(8)]
            )
        finally:
            executor.shutdown()
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
            executor.shutdown()
        assert result == [n * n for n in range(8)]
        assert os.path.exists(flag)


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
            measurement.executor.shutdown()
        self._assert_identical(serial_points, parallel)

    @pytest.mark.parametrize("own_dir", [False, True], ids=["disk", "own-dir"])
    def test_spawned_workers_rebuild_the_session(
        self, serial_points, monkeypatch, tmp_path, own_dir
    ):
        # Spawned workers cannot inherit the live session, so this pins
        # the rebuild from the spec, which maps the traces back from the
        # session's disk tier.  A session over its own directory hands
        # that directory to the workers: the default one stays empty.
        default = tmp_path / "default"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
        store = ArtifactStore(cache_dir=tmp_path / "own") if own_dir else None
        executor = SweepExecutor(jobs=2, start_method="spawn")
        measurement = _tiny_measurement(executor, store)
        measurement.benchmarks  # persists the traces the workers map
        try:
            parallel = _fig12_points(DesignOptimizer(measurement))
        finally:
            executor.shutdown()
        self._assert_identical(serial_points, parallel)
        if own_dir:
            assert not default.exists() or not any(default.iterdir())

    def test_parallel_benchmark_synthesis_matches(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        parallel = _tiny_measurement(executor=SweepExecutor(jobs=2))
        parallel_benchmarks = parallel.benchmarks
        parallel.executor.shutdown()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = _tiny_measurement()
        for theirs, ours in zip(parallel_benchmarks, serial.benchmarks):
            assert np.array_equal(theirs.trace.block_ids, ours.trace.block_ids)
            assert np.array_equal(theirs.trace.went_taken, ours.trace.went_taken)
            assert theirs.trace.restarts == ours.trace.restarts
            programs = theirs.compiled.as_arrays(), ours.compiled.as_arrays()
            assert programs[0].keys() == programs[1].keys()
            for name, array in programs[1].items():
                assert np.array_equal(programs[0][name], array), name

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
            parallel.executor.shutdown()
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
            "_shutdown_pool",
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
            "_shutdown_pool",
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
            "_shutdown_pool",
            lambda: (_ for _ in ()).throw(ValueError("a genuine bug")),
            raising=False,
        )
        before = executor_module.teardown_failures()
        with pytest.raises(ValueError):
            executor.__del__()
        assert executor_module.teardown_failures() == before
        monkeypatch.undo()
