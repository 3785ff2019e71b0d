"""SweepScheduler: memoisation, coalescing, fairness, durability.

Most tests swap :class:`~repro.core.optimizer.DesignOptimizer` for a
gated fake so queueing behaviour is deterministic (a real sweep's timing
is not); the durable-run test and the memo zero-simulation test run the
real optimizer over a miniature session.
"""

import collections
import itertools
import logging
import os
import sys
import threading
import time

import pytest

import repro.core.optimizer as optimizer_module
from repro.engine.session import SessionRegistry
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.service.protocol import parse_query
from repro.service.scheduler import SweepJob, SweepScheduler
from tests.service.fakes import GatedOptimizer, StubSession, stub_registry

TINY = {"tiny": 1500}


def _query(points, tenant="public", scales=TINY):
    return parse_query(
        {"grid": points, "scale": "tiny", "tenant": tenant}, scales=scales
    )


@pytest.fixture
def scheduler(tmp_path):
    registry = SessionRegistry(scales=TINY)
    registry.set("tiny", StubSession())
    sched = SweepScheduler(
        registry=registry,
        store=ArtifactStore(cache_dir=tmp_path / "svc", namespace="service"),
        workers=1,
    )
    yield sched.start()
    GatedOptimizer.gate.set()
    sched.close()


class TestMemoisation:
    def test_identical_query_is_served_without_sweeping(
        self, scheduler, fake_sweeps
    ):
        fake_sweeps.gate.set()
        q1 = _query([{"icache_kw": 1}, {"icache_kw": 2}])
        job1 = scheduler.submit(q1)
        assert job1.wait(30) and job1.state == "done"
        assert len(fake_sweeps.calls) == 1

        # A different spelling of the same grid, from another tenant.
        q2 = _query([{"icache_kw": 2.0}, {"icache_kw": 1.0}], tenant="other")
        assert q2.digest == q1.digest
        job2 = scheduler.submit(q2)
        assert job2.wait(30) and job2.state == "done"
        assert job2.cache_hit and job2.result["cache"] is True
        # Zero simulation on the repeat: no new optimizer call, and the
        # memo job's event stream has no execution spans at all.
        assert len(fake_sweeps.calls) == 1
        kinds = [e["kind"] for e in scheduler.bus.snapshot(job2.id)]
        assert kinds == ["memo_hit", "done"]
        assert scheduler.stats()["memo_hits"] == 1

    def test_one_store_entry_per_semantic_query(self, scheduler, fake_sweeps):
        fake_sweeps.gate.set()
        spellings = [
            [{"icache_kw": 4, "penalty": 8}],
            [{"penalty": 8.0, "icache_kw": 4.0}],
            [{"icache_kw": 4, "penalty": 8}, {"icache_kw": 4, "penalty": 8}],
        ]
        for grid in spellings:
            job = scheduler.submit(_query(grid))
            assert job.wait(30) and job.state == "done"
        assert len(fake_sweeps.calls) == 1
        assert scheduler.store.stats().entries == 1

    def test_memo_survives_a_scheduler_restart(self, scheduler, fake_sweeps, tmp_path):
        fake_sweeps.gate.set()
        query = _query([{"dcache_kw": 2}])
        job = scheduler.submit(query)
        assert job.wait(30) and job.state == "done"

        registry = SessionRegistry(scales=TINY)
        registry.set("tiny", StubSession())
        fresh = SweepScheduler(
            registry=registry,
            store=ArtifactStore(cache_dir=tmp_path / "svc", namespace="service"),
            workers=1,
        ).start()
        try:
            rerun = fresh.submit(query)
            assert rerun.wait(30) and rerun.cache_hit
            assert len(fake_sweeps.calls) == 1  # still just the first sweep
        finally:
            fresh.close()


class TestCoalescing:
    def test_concurrent_identical_queries_share_one_job(
        self, scheduler, fake_sweeps
    ):
        query = _query([{"icache_kw": 8}])
        first = scheduler.submit(query)
        # The worker is blocked on the gate, so these must coalesce.
        while not fake_sweeps.calls:
            time.sleep(0.01)
        second = scheduler.submit(_query([{"icache_kw": 8.0}], tenant="b"))
        third = scheduler.submit(query)
        assert second is first and third is first
        assert first.coalesced == 2
        fake_sweeps.gate.set()
        assert first.wait(30) and first.state == "done"
        assert len(fake_sweeps.calls) == 1
        assert scheduler.stats()["coalesced"] == 2


class TestFairness:
    def test_round_robin_across_tenants(self, scheduler, fake_sweeps):
        def grid(kw):
            return [{"icache_kw": kw}]

        first = scheduler.submit(_query(grid(1), tenant="alpha"))
        while not fake_sweeps.calls:  # worker now blocked on job 1
            time.sleep(0.01)
        scheduler.submit(_query(grid(2), tenant="alpha"))
        scheduler.submit(_query(grid(4), tenant="alpha"))
        scheduler.submit(_query(grid(8), tenant="beta"))
        fake_sweeps.gate.set()
        assert first.wait(30)
        deadline = time.monotonic() + 30
        while len(fake_sweeps.calls) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        order = [configs[0].icache_kw for configs in fake_sweeps.calls]
        # alpha's burst cannot starve beta: after the running job, the
        # single worker alternates alpha, beta, alpha.
        assert order == [1.0, 2.0, 8.0, 4.0]


class TestFailure:
    def test_sweep_error_fails_the_job_cleanly(self, scheduler, monkeypatch):
        class _Exploding:
            def __init__(self, session):
                pass

            def select(self, configs, **_kwargs):
                raise RuntimeError("cube collapsed")

        monkeypatch.setattr(optimizer_module, "DesignOptimizer", _Exploding)
        job = scheduler.submit(_query([{"icache_kw": 1}]))
        assert job.wait(30)
        assert job.state == "failed"
        assert "cube collapsed" in job.error
        assert scheduler.bus.closed(job.id)
        assert scheduler.stats()["failed"] == 1
        # The digest is no longer in flight: a resubmission re-runs.
        retry = scheduler.submit(_query([{"icache_kw": 1}]))
        assert retry is not job

    def test_submit_after_close_is_an_error(self, tmp_path, fake_sweeps):
        registry = SessionRegistry(scales=TINY)
        registry.set("tiny", StubSession())
        sched = SweepScheduler(
            registry=registry, store=ArtifactStore(use_disk=False), workers=1
        ).start()
        fake_sweeps.gate.set()
        sched.close()
        with pytest.raises(ConfigurationError):
            sched.submit(_query([{"icache_kw": 1}]))

    def test_close_fails_queued_jobs(self, tmp_path, fake_sweeps):
        registry = SessionRegistry(scales=TINY)
        registry.set("tiny", StubSession())
        sched = SweepScheduler(
            registry=registry, store=ArtifactStore(use_disk=False), workers=1
        ).start()
        running = sched.submit(_query([{"icache_kw": 1}]))
        while not fake_sweeps.calls:
            time.sleep(0.01)
        queued = sched.submit(_query([{"icache_kw": 2}]))
        closer = threading.Thread(target=sched.close)
        closer.start()
        time.sleep(0.05)
        fake_sweeps.gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert queued.wait(5) and queued.state == "failed"
        assert "shut down" in queued.error
        assert running.wait(5) and running.state == "done"


class TestDurableRuns:
    def test_jobs_journal_under_the_spool_dir(self, tmp_path, monkeypatch):
        """A real (miniature) sweep journals through JobRunner."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        registry = SessionRegistry(scales=TINY)
        sched = SweepScheduler(
            registry=registry,
            store=ArtifactStore(cache_dir=tmp_path / "svc", namespace="service"),
            workers=1,
            spool_dir=tmp_path / "spool",
        ).start()
        try:
            query = _query([{"icache_kw": 1}, {"icache_kw": 2}])
            job = sched.submit(query)
            assert job.wait(240), "miniature sweep timed out"
            assert job.state == "done", job.error
            run_dir = tmp_path / "spool" / f"job-{query.digest}"
            assert (run_dir / "RUN.json").exists()
            # The event stream carried real execution progress.
            kinds = [e["kind"] for e in sched.bus.snapshot(job.id)]
            assert kinds[0] == "queued" and kinds[-1] == "done"
            assert "span" in kinds
            # The session's tracer was restored after the run.
            session = registry.get("tiny")
            assert session.tracer is NULL_TRACER
            assert session.job_config is None
        finally:
            sched.close()


class TestDoneCallbacks:
    """``SweepJob.add_done_callback`` against a racing ``_finish_job``."""

    TRIALS = 30
    PER_THREAD = 20

    @staticmethod
    def _scheduler():
        return SweepScheduler(
            registry=stub_registry(), store=ArtifactStore(use_disk=False)
        )

    def test_each_callback_runs_exactly_once(self):
        sched = self._scheduler()
        query = _query([{"icache_kw": 1}])
        registrars = 2 * (os.cpu_count() or 1) + 2  # more threads than cores
        tokens = itertools.count()
        lock = threading.Lock()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(self.TRIALS):
                job = SweepJob(id=f"stress-{trial}", query=query, tenant="public")
                registered, ran, early = [], collections.Counter(), []

                def register():
                    with lock:
                        token = next(tokens)
                        registered.append(token)

                    def callback(finished):
                        if not finished.done.is_set():
                            early.append(token)
                        with lock:
                            ran[token] += 1

                    job.add_done_callback(callback)

                for _ in range(self.PER_THREAD):  # before completion
                    register()
                start = threading.Barrier(registrars + 1, timeout=30)

                def registrar():
                    start.wait()
                    while not job.done.is_set():  # straddle the completion
                        register()
                    for _ in range(self.PER_THREAD):
                        register()

                def finisher():
                    start.wait()
                    sched._finish_job(job)

                threads = [threading.Thread(target=finisher)]
                threads += [threading.Thread(target=registrar) for _ in range(registrars)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                for _ in range(self.PER_THREAD):  # after: runs at once
                    register()
                assert early == []
                assert sorted(ran) == sorted(registered)
                assert set(ran.values()) == {1}
                assert len(registered) >= (registrars + 2) * self.PER_THREAD
        finally:
            sys.setswitchinterval(previous)
        stats = sched.stats()
        assert stats["completed"] == self.TRIALS
        assert stats["failed"] == 0

    def test_a_raising_callback_is_logged_and_the_rest_still_run(self, caplog):
        sched = self._scheduler()
        job = SweepJob(id="raises", query=_query([{"icache_kw": 1}]), tenant="public")
        ran = []

        def explode(_job):
            raise RuntimeError("waiter gone")

        job.add_done_callback(explode)
        job.add_done_callback(ran.append)
        with caplog.at_level(logging.ERROR, logger="repro.service.scheduler"):
            sched._finish_job(job)
        assert ran == [job]
        assert "waiter gone" in caplog.text
        stats = sched.stats()
        assert (stats["completed"], stats["failed"]) == (1, 0)
