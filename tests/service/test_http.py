"""End-to-end HTTP tests: a real server over a miniature real session.

One module-scoped server (tiny instruction budget, loopback, ephemeral
port) backs most tests; the first sweep warms the session, later tests
ride the memo and artifact tiers.  The concurrent-load test starts its
own server under a small disk budget, and the wait-path tests start
servers whose sweeps block on a test-controlled gate.
"""

import asyncio
import contextlib
import functools
import http.client
import json
import os
import threading
import time

import pytest

import repro.service.http as http_module
from repro.engine.session import SessionRegistry
from repro.engine.store import ArtifactStore
from repro.service import ServiceClient, ServiceError, SweepScheduler, SweepService
from tests.service.fakes import stub_registry

TINY = {"tiny": 1500}
GRID = {"base": {"penalty": 8}, "axes": {"icache_kw": [1, 2]}}


def _start_loop(service):
    """Start ``service`` on a fresh event loop in a daemon thread."""
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(service.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(30)
    return loop, thread


def _close_loop(loop, thread):
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)
    assert not thread.is_alive()
    loop.close()


@contextlib.contextmanager
def _serving(tmp, registry=None, wait_timeout_s=600.0, **scheduler_options):
    """A started service on an ephemeral port, with its caches under ``tmp``."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    scheduler = SweepScheduler(
        registry=registry if registry is not None else SessionRegistry(scales=TINY),
        store=ArtifactStore(cache_dir=tmp / "svc", namespace="service"),
        workers=2,
        spool_dir=tmp / "spool",
        **scheduler_options,
    )
    service = SweepService(scheduler, port=0, wait_timeout_s=wait_timeout_s)
    loop, thread = _start_loop(service)
    try:
        yield service
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(30)
        _close_loop(loop, thread)
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous


def _until(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    with _serving(tmp_path_factory.mktemp("service")) as service:
        yield service


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port, timeout=240)


def _raw(server, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestPlumbing:
    def test_healthz(self, server, client):
        assert client.healthz()["ok"] is True

    def test_unknown_route_404(self, server):
        status, body = _raw(server, "GET", "/v1/nope")
        assert status == 404
        assert b"no route" in body

    def test_wrong_method_405(self, server):
        assert _raw(server, "POST", "/healthz")[0] == 405
        assert _raw(server, "GET", "/v1/sweeps")[0] == 405

    def test_non_json_body_400(self, server):
        status, body = _raw(server, "POST", "/v1/sweeps", body=b"not json")
        assert status == 400
        assert b"not JSON" in body

    def test_non_object_body_400(self, server):
        status, _ = _raw(server, "POST", "/v1/sweeps", body=b"[1,2]")
        assert status == 400

    def test_bad_content_length_400(self, server):
        status, _ = _raw(
            server,
            "POST",
            "/v1/sweeps",
            body=b"{}",
            headers={"Content-Length": "banana"},
        )
        assert status == 400

    def test_stats_shape(self, server, client):
        stats = client.stats()
        assert {"submitted", "memo_hits", "coalesced", "store"} <= set(stats)
        assert 0.0 <= stats["store"]["hit_rate"] <= 1.0


class TestSweeps:
    def test_wait_submission_returns_the_answer(self, server, client):
        resp = client.submit(GRID, scale="tiny", wait=True)
        assert resp["_status"] == 200
        assert resp["state"] == "done"
        result = resp["result"]
        assert result["point_count"] == 2
        assert result["best"] is not None
        assert result["cache"] is False
        tpis = [p["tpi_ns"] for p in result["points"]]
        assert result["best"]["tpi_ns"] == min(tpis)

    def test_repeat_query_is_a_memo_hit_with_no_execution(
        self, server, client
    ):
        # Different spelling, different tenant — same canonical query.
        respelled = [
            {"icache_kw": 2.0, "penalty": 8.0},
            {"penalty": 8, "icache_kw": 1},
        ]
        resp = client.submit(respelled, scale="tiny", tenant="other", wait=True)
        assert resp["cache_hit"] is True
        assert resp["result"]["cache"] is True
        events = list(client.events(resp["job_id"]))
        kinds = [e["kind"] for e in events]
        assert kinds == ["memo_hit", "done"]
        assert not any(k == "span" for k in kinds)

    def test_async_submission_polls_to_done(self, server, client):
        grid = {"base": {"penalty": 10}, "axes": {"dcache_kw": [1, 2]}}
        resp = client.submit(grid, scale="tiny", wait=False)
        assert resp["_status"] in (200, 202)
        job_id = resp["job_id"]
        deadline = 240
        import time

        start = time.monotonic()
        while True:
            job = client.job(job_id)
            if job["state"] in ("done", "failed"):
                break
            assert time.monotonic() - start < deadline
            time.sleep(0.1)
        assert job["state"] == "done"
        assert job["result"]["point_count"] == 2

    def test_event_stream_carries_progress(self, server, client):
        grid = {"base": {"penalty": 12}, "axes": {"icache_kw": [1, 2]}}
        resp = client.submit(grid, scale="tiny", wait=True)
        events = list(client.events(resp["job_id"]))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        assert "span" in kinds
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        # Cursor resumption: re-stream from the middle.
        tail = list(client.events(resp["job_id"], after=seqs[1]))
        assert [e["seq"] for e in tail] == seqs[2:]

    def test_unknown_job_404(self, server, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            list(client.events("no-such-job"))
        assert excinfo.value.status == 404

    def test_invalid_grid_400(self, server, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"axes": {"warp_core": [1]}}, scale="tiny")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit([{"icache_kw": 3}], scale="tiny")
        assert excinfo.value.status == 400

    def test_invalid_scale_and_wait_400(self, server, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit([{}], scale="warp")
        assert excinfo.value.status == 400
        status, _ = _raw(
            server,
            "POST",
            "/v1/sweeps",
            body=json.dumps({"grid": [{}], "scale": "tiny", "wait": "yes"}).encode(),
        )
        assert status == 400

    def test_responses_are_strict_json(self, server, client):
        stats = client.stats()
        json.dumps(stats, allow_nan=False)


async def _shut_down(service):
    """Stop the service the way ``asyncio.run`` ends a server: every
    in-flight request is cancelled, then the service stops."""
    current = asyncio.current_task()
    requests = [task for task in asyncio.all_tasks() if task is not current]
    for task in requests:
        task.cancel()
    await asyncio.gather(*requests, return_exceptions=True)
    await service.stop()


class TestWaitPath:
    def test_wait_returns_without_polling(self, server, client, monkeypatch):
        slept = []

        async def no_sleep(delay, *args, **kwargs):
            slept.append(delay)
            raise AssertionError("a waiting request polled")

        monkeypatch.setattr(http_module.asyncio, "sleep", no_sleep)
        grid = {"base": {"penalty": 9}, "axes": {"icache_kw": [1, 2]}}
        resp = client.submit(grid, scale="tiny", wait=True)
        assert resp["_status"] == 200
        assert resp["cache_hit"] is False  # a worker thread ran the sweep
        assert resp["state"] == "done"
        assert resp["result"]["point_count"] == 2
        assert slept == []

    def test_wait_timeout_is_408_and_the_job_still_finishes(
        self, tmp_path, fake_sweeps
    ):
        with _serving(
            tmp_path, registry=stub_registry(), wait_timeout_s=0.2
        ) as service:
            client = ServiceClient(port=service.port, timeout=60)
            try:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(GRID, scale="tiny", wait=True)
                assert excinfo.value.status == 408
                (job_id,) = service.scheduler.jobs
                assert f"job {job_id} still running" in str(excinfo.value)
            finally:
                fake_sweeps.gate.set()
            _until(lambda: client.job(job_id)["state"] != "running")
            job = client.job(job_id)
            assert job["state"] == "done"
            assert job["result"]["point_count"] == 2

    def test_stop_while_a_request_waits(
        self, tmp_path, fake_sweeps, monkeypatch, caplog
    ):
        scheduler = SweepScheduler(
            registry=stub_registry(), store=ArtifactStore(cache_dir=tmp_path), workers=1
        )
        # A short worker join lets stop() return while the gated job
        # still runs, so the job finishes after its waiter's loop closed.
        monkeypatch.setattr(
            scheduler, "close", functools.partial(scheduler.close, timeout=0.1)
        )
        service = SweepService(scheduler, port=0)
        loop, thread = _start_loop(service)
        outcome = []

        def submit():
            client = ServiceClient(port=service.port, timeout=60)
            try:
                outcome.append(client.submit(GRID, scale="tiny", wait=True))
            except Exception as exc:  # noqa: BLE001 - the request is cut off
                outcome.append(exc)

        waiter = threading.Thread(target=submit)
        waiter.start()
        try:
            _until(lambda: fake_sweeps.calls and scheduler.jobs)
            (job,) = scheduler.jobs.values()
            _until(lambda: job._callbacks)  # the request is waiting on it
            workers = list(scheduler._threads)
            asyncio.run_coroutine_threadsafe(_shut_down(service), loop).result(30)
            _close_loop(loop, thread)
            assert not job.done.is_set()
        finally:
            fake_sweeps.gate.set()
        assert job.done.wait(30)
        for worker in [*workers, waiter]:
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert len(outcome) == 1
        stats = scheduler.stats()
        assert stats["failed"] == 0
        assert stats["completed"] == 1
        assert job.state == "done"
        # The late wake was dropped, not raised into the worker thread.
        assert [r for r in caplog.records if r.name.startswith("repro")] == []


#: Overlapping query pool: four small grids sharing design points.
LOAD_GRIDS = [
    {"base": {"penalty": 8}, "axes": {"icache_kw": [1, 2], "dcache_kw": [1, 2]}},
    {"base": {"penalty": 8}, "axes": {"icache_kw": [2, 4]}},
    {"base": {"penalty": 12}, "axes": {"dcache_kw": [1, 2]}},
    {"base": {"penalty": 8, "block_words": 8}, "axes": {"icache_kw": [1, 2]}},
]


def _respell(grid):
    """The same grid as an explicit reversed list with float-spelled values."""
    entries = [dict(grid["base"])]
    for name in sorted(grid["axes"]):
        entries = [
            {**entry, name: float(value)}
            for entry in entries
            for value in grid["axes"][name]
        ]
    return entries[::-1]


class TestConcurrentLoad:
    CLIENTS = 8
    REQUESTS = 8

    def test_clients_memoise_and_evict_under_a_disk_budget(self, tmp_path):
        # Every client asks every grid; odd clients re-spell them, so
        # canonicalization and the memo, not client cooperation, are
        # what de-duplicate the work.
        states, errors = [], []
        barrier = threading.Barrier(self.CLIENTS, timeout=60)

        def client_loop(index, port):
            client = ServiceClient(port=port, timeout=240)
            barrier.wait()
            for request in range(self.REQUESTS):
                grid = LOAD_GRIDS[request % len(LOAD_GRIDS)]
                if index % 2:
                    grid = _respell(grid)
                try:
                    resp = client.submit(
                        grid, scale="tiny", tenant=f"tenant-{index}", wait=True
                    )
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(f"client {index}: {exc}")
                    return
                states.append(resp["state"])

        # The four answers take about 9 KB of memo on disk: a 4 KiB
        # budget evicts on writes, while the memory tier still serves
        # every repeat.
        with _serving(tmp_path, max_disk_bytes=4 << 10) as service:
            threads = [
                threading.Thread(target=client_loop, args=(index, service.port))
                for index in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
            assert not any(thread.is_alive() for thread in threads)
            stats = service.scheduler.stats()

        assert errors == []
        assert states == ["done"] * (self.CLIENTS * self.REQUESTS)
        assert stats["failed"] == 0
        assert stats["submitted"] == self.CLIENTS * self.REQUESTS
        memoised = stats["memo_hits"] + stats["coalesced"]
        assert memoised / stats["submitted"] > 0.5
        assert stats["store"]["disk_evictions"] >= 1
        # The budget bounds the memo only: the session keeps its bundles.
        assert [tier["disk_evictions"] for tier in stats["sessions"].values()] == [0]
