"""JobRunner tests: durable sweeps, crash/resume determinism, failures.

The acceptance contract lives here: a sweep interrupted by the fault
injector, then resumed in a fresh session, must render byte-identical
results to an uninterrupted serial run.  A shard that fails is
dispatched once and stops the run with its reason; resuming the run
directory is the only retry.
"""

import json
import time

import pytest

from repro.core import DesignOptimizer, SuiteMeasurement, SystemConfig
from repro.engine.executor import SweepExecutor
from repro.errors import ConfigurationError
from repro.jobs import FaultInjector, InjectedCrash, JobConfig, RunJournal
from repro.jobs import runner as runner_module
from repro.jobs.faults import FaultSpec
from repro.jobs.journal import _encode
from repro.obs import Tracer
from repro.workload import benchmark_by_name
from tests.jobs.helpers import truncate_journal_tail

SHARD_SIZE = 5  # 24-point fig12 grid -> shards of 5,5,5,5,4


@pytest.fixture(autouse=True)
def small_shards(monkeypatch):
    """Five-point shards, so the 24-point grid makes five of them."""
    monkeypatch.setattr(runner_module, "SHARD_SIZE", SHARD_SIZE)


def _session(executor=None, total=60_000, tracer=None):
    specs = [benchmark_by_name(name) for name in ("small", "yacc")]
    return SuiteMeasurement(
        specs=specs,
        total_instructions=total,
        min_benchmark_instructions=30_000,
        executor=executor,
        tracer=tracer,
    )


def _grid(optimizer):
    return optimizer.symmetric_grid(SystemConfig(penalty=10))


def _durable_sweep(run_dir, **overrides):
    """One full sweep under a durable run; returns (points, job_config)."""
    config = JobConfig(run_dir=run_dir, **overrides)
    measurement = _session()
    measurement.attach_jobs(config)
    optimizer = DesignOptimizer(measurement)
    return optimizer.sweep(_grid(optimizer)), config


def _journal_path(run_dir):
    journals = sorted((run_dir / "sweeps").glob("sweep-*.jsonl"))
    assert len(journals) == 1
    return journals[0]


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.children)


def _assert_identical(reference, points):
    assert len(points) == len(reference)
    for a, b in zip(reference, points):
        assert a.config == b.config  # same order, same points
        assert a.cpi == b.cpi
        assert a.cycle_time_ns == b.cycle_time_ns
        assert a.tpi_ns == b.tpi_ns


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted serial sweep every durable variant must match."""
    optimizer = DesignOptimizer(_session())
    return optimizer.sweep(_grid(optimizer))


class TestDurableSweep:
    def test_matches_serial_reference(self, reference, tmp_path):
        points, config = _durable_sweep(tmp_path / "run")
        _assert_identical(reference, points)
        assert config.stats.as_dict() == {
            "sweeps": 1,
            "sweeps_resumed": 0,
            "shards_total": 5,
            "shards_replayed": 0,
            "shards_executed": 5,
            "shard_retries": 0,
            "points_replayed": 0,
            "points_executed": 24,
        }
        assert RunJournal.load(_journal_path(tmp_path / "run")).finished

    def test_repeat_sweep_replays_everything(self, reference, tmp_path):
        _durable_sweep(tmp_path / "run")
        points, config = _durable_sweep(tmp_path / "run", resume=True)
        _assert_identical(reference, points)
        assert config.stats.shards_executed == 0
        assert config.stats.shards_replayed == 5
        assert config.stats.points_replayed == 24

    def test_jobs_spans_recorded(self, tmp_path):
        tracer = Tracer()
        config = JobConfig(run_dir=tmp_path / "run")
        measurement = _session(tracer=tracer)
        measurement.attach_jobs(config)
        optimizer = DesignOptimizer(measurement)
        optimizer.sweep(_grid(optimizer))
        sweep_span = tracer.roots[-1]
        assert sweep_span.name == "optimizer.sweep"
        run_span = sweep_span.children[0]
        assert run_span.name == "jobs.run"
        assert run_span.counters["points_executed"] == 24
        assert [c.name for c in run_span.children] == ["jobs.shard"] * 5


class TestCrashResume:
    def test_abort_then_resume_is_identical(self, reference, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(InjectedCrash):
            _durable_sweep(
                run_dir, faults=FaultInjector([FaultSpec("abort", 2)])
            )
        # Shards 0-2 committed before the crash; the journal is unfinished.
        journal = RunJournal.load(_journal_path(run_dir))
        completed, _ = journal.replay()
        assert sorted(completed) == [0, 1, 2]
        assert not journal.finished
        points, config = _durable_sweep(run_dir, resume=True)
        _assert_identical(reference, points)
        assert config.stats.as_dict() == {
            "sweeps": 1,
            "sweeps_resumed": 1,
            "shards_total": 5,
            "shards_replayed": 3,
            "shards_executed": 2,
            "shard_retries": 0,
            "points_replayed": 15,
            "points_executed": 9,
        }

    def test_truncated_tail_reexecutes_torn_shard(self, reference, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(InjectedCrash):
            _durable_sweep(
                run_dir, faults=FaultInjector([FaultSpec("abort", 1)])
            )
        path = _journal_path(run_dir)
        truncate_journal_tail(path)  # tear shard 1's commit record
        completed, _ = RunJournal.load(path).replay()
        assert sorted(completed) == [0]
        points, config = _durable_sweep(run_dir, resume=True)
        _assert_identical(reference, points)
        assert config.stats.shards_replayed == 1
        assert config.stats.shards_executed == 4

    def test_double_resume_is_idempotent(self, reference, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(InjectedCrash):
            _durable_sweep(
                run_dir, faults=FaultInjector([FaultSpec("abort", 0)])
            )
        _durable_sweep(run_dir, resume=True)
        points, config = _durable_sweep(run_dir, resume=True)
        _assert_identical(reference, points)
        assert config.stats.shards_executed == 0
        # The finished journal gained no records from either resume.
        records = RunJournal.load(_journal_path(run_dir)).records
        assert [r["type"] for r in records].count("run_completed") == 1

    def test_resume_with_different_spec_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(InjectedCrash):
            _durable_sweep(
                run_dir, faults=FaultInjector([FaultSpec("abort", 0)])
            )
        # Same grid, different measurement spec: the cached points would
        # be lies, so the journal must refuse rather than mix sessions.
        config = JobConfig(run_dir=run_dir, resume=True)
        measurement = _session(total=90_000)
        measurement.attach_jobs(config)
        optimizer = DesignOptimizer(measurement)
        with pytest.raises(ConfigurationError, match="spec_digest mismatch"):
            optimizer.sweep(_grid(optimizer))

    def test_existing_run_dir_without_resume_refused(self, tmp_path):
        _durable_sweep(tmp_path / "run")
        with pytest.raises(ConfigurationError, match="--resume"):
            _durable_sweep(tmp_path / "run")


class TestRetries:
    """A failed shard stops the run with its reason; resume is the retry."""

    def _failures(self, run_dir):
        journal = RunJournal.load(_journal_path(run_dir))
        failed = [r for r in journal.records if r["type"] == "shard_failed"]
        return journal, failed

    def test_transient_fault_is_retried(self, reference, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        faults = FaultInjector([FaultSpec("task-error", 1, 0)])
        with pytest.raises(ConfigurationError, match="shard 1 failed") as raised:
            _durable_sweep(run_dir, faults=faults)
        assert "InjectedFault" in str(raised.value)
        assert "--resume" in str(raised.value)
        journal, failed = self._failures(run_dir)
        assert len(failed) == 1
        assert failed[0]["shard"] == 1 and "InjectedFault" in failed[0]["error"]
        assert journal.replay()[1] == {0: 1, 1: 1}  # shard 1 dispatched once
        assert not journal.finished
        assert sleeps == []
        # The resume dispatches shard 1 again, as its attempt 1, where
        # the scripted fault no longer fires.
        points, config = _durable_sweep(run_dir, resume=True, faults=faults)
        _assert_identical(reference, points)
        assert config.stats.shard_retries == 1
        journal, failed = self._failures(run_dir)
        assert len(failed) == 1
        assert journal.replay()[1] == {0: 1, 1: 2, 2: 1, 3: 1, 4: 1}
        assert journal.finished
        assert sleeps == []

    def test_retries_exhausted_raises(self, tmp_path):
        # A fault on every attempt: each run fails with the shard's
        # reason after one dispatch, and no run retries it by itself.
        run_dir = tmp_path / "run"
        faults = FaultInjector(
            [FaultSpec("task-error", 0, attempt) for attempt in range(3)]
        )
        for attempt in range(3):
            with pytest.raises(
                ConfigurationError, match=f"shard 0 failed on attempt {attempt}"
            ):
                _durable_sweep(run_dir, resume=attempt > 0, faults=faults)
            journal, failed = self._failures(run_dir)
            assert journal.replay()[1] == {0: attempt + 1}
            assert [r["attempt"] for r in failed] == list(range(attempt + 1))

    def test_resume_gets_fresh_retry_budget(self, reference, tmp_path):
        run_dir = tmp_path / "run"
        faults = FaultInjector(
            [FaultSpec("task-error", 0, attempt) for attempt in range(2)]
        )
        for attempt in range(2):
            with pytest.raises(ConfigurationError, match="shard 0 failed"):
                _durable_sweep(run_dir, resume=attempt > 0, faults=faults)
        # Attempt numbering continues from the journal (attempts 0-1 are
        # spent), so the same injector no longer matches: each resume
        # dispatches the failed shard once more.
        points, config = _durable_sweep(run_dir, resume=True, faults=faults)
        _assert_identical(reference, points)
        assert config.stats.shard_retries == 1
        _, dispatched = RunJournal.load(_journal_path(run_dir)).replay()
        assert dispatched[0] == 3  # 2 failed dispatches + 1 resumed success

    def test_a_run_dir_with_a_retry_budget_in_its_header_resumes(
        self, reference, tmp_path, monkeypatch
    ):
        # Journals written when runs had a retry budget carry
        # ``max_retries`` in their header, at the default eight-point
        # shards; the field is no part of a journal's identity.
        monkeypatch.setattr(runner_module, "SHARD_SIZE", 8)
        run_dir = tmp_path / "run"
        with pytest.raises(InjectedCrash):
            _durable_sweep(run_dir, faults=FaultInjector([FaultSpec("abort", 1)]))
        path = _journal_path(run_dir)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["crc"]
        assert header["shard_size"] == 8 and "max_retries" not in header
        lines[0] = _encode({**header, "max_retries": 2})
        path.write_text("\n".join(lines) + "\n")
        points, config = _durable_sweep(run_dir, resume=True)
        _assert_identical(reference, points)
        assert config.stats.shards_replayed == 2
        assert config.stats.shards_executed == 1
        journal = RunJournal.load(path)
        assert journal.records[0]["max_retries"] == 2
        assert journal.finished


class TestFig12Acceptance:
    """The PR's acceptance criterion, end to end on the real experiment."""

    def test_interrupted_fig12_resumes_byte_identical(self, tmp_path):
        from repro.experiments import fig12

        baseline = str(fig12.run(_session()))
        run_dir = tmp_path / "run"
        crashed = _session()
        crashed.attach_jobs(
            JobConfig(run_dir=run_dir, faults=FaultInjector([FaultSpec("abort", 1)]))
        )
        with pytest.raises(InjectedCrash):
            fig12.run(crashed)
        resumed = _session()
        resumed.attach_jobs(JobConfig(run_dir=run_dir, resume=True))
        assert str(fig12.run(resumed)) == baseline
        # fig12 sweeps two grids (static + dynamic loads): each journal
        # must be finished with every shard dispatched once.
        journals = sorted((run_dir / "sweeps").glob("sweep-*.jsonl"))
        assert len(journals) == 2
        for path in journals:
            journal = RunJournal.load(path)
            assert journal.finished
            _, dispatched = journal.replay()
            assert set(dispatched.values()) == {1}


class TestParallelExecutor:
    def test_worker_exit_recovers_under_durable_run(
        self, reference, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_dir = tmp_path / "run"
        config = JobConfig(
            run_dir=run_dir, faults=FaultInjector([FaultSpec("worker-exit", 0)])
        )
        executor = SweepExecutor(jobs=2)
        tracer = Tracer()
        measurement = _session(executor=executor)
        measurement.benchmarks  # the prefetch's pool, before the fault
        measurement.attach_tracer(tracer)
        measurement.attach_jobs(config)
        optimizer = DesignOptimizer(measurement)
        try:
            points = optimizer.sweep(_grid(optimizer))
        finally:
            executor.retire_pool(wait=True)
        _assert_identical(reference, points)
        # The scripted hard-exit fired in shard 0's cube builds (one of
        # their maps restarted its pool, once in total), yet no shard
        # failed, nor needed the parent's fallback: the executor's
        # per-item re-dispatch absorbed the dead worker.
        (shard_span,) = [
            span
            for span in _walk(tracer.roots)
            if span.name == "jobs.shard" and span.attrs["shard"] == 0
        ]
        builds = [
            span
            for span in _walk([shard_span])
            if span.name in ("imiss.cube", "dmiss.cube")
        ]
        maps = [span for span in _walk(builds) if span.name == "executor.map"]
        assert maps and sum(span.counters.get("pool_restarts", 0) for span in maps) == 1
        restarts = [
            span.counters.get("pool_restarts", 0)
            for span in _walk(tracer.roots)
            if span.name == "executor.map"
        ]
        assert sum(restarts) == 1
        names = {span.name for span in _walk(tracer.roots)}
        assert "executor.serial_fallback" not in names
        assert config.stats.shard_retries == 0
        assert RunJournal.load(_journal_path(run_dir)).finished


class TestPointRecords:
    def test_physical_axes_round_trip(self):
        from repro.core.optimizer import DesignPoint
        from repro.jobs.runner import point_from_record, point_to_record

        point = DesignPoint(
            config=SystemConfig(icache_kw=8, dcache_kw=16, branch_slots=2),
            cpi=1.75,
            cycle_time_ns=4.25,
            epi_nj=17.375,
            area_cm2=32.0625,
        )
        rebuilt = point_from_record(point_to_record(point))
        assert rebuilt == point
        assert rebuilt.epi_nj == point.epi_nj
        assert rebuilt.area_cm2 == point.area_cm2
