"""Fair, memoising sweep scheduler: the service's execution core.

One :class:`SweepScheduler` owns

* a *service store* — an :class:`~repro.engine.store.ArtifactStore`
  holding finished answers under ``service_sweep`` keys (the memo tier:
  an identical query is answered without touching a simulator), with an
  optional disk byte budget so many tenants' answers coexist;
* per-tenant FIFO queues drained round-robin by a small pool of worker
  threads — a tenant hammering the service with a burst cannot starve
  another tenant's single query, because each scheduling turn takes at
  most one job per tenant;
* an in-flight table keyed by query digest — concurrent identical
  queries *coalesce* onto one job, so ten clients asking the same
  question cost one simulation;
* per-scale measurement sessions (built lazily through a
  :class:`~repro.engine.session.SessionRegistry`) and a per-scale lock:
  sessions are not thread-safe, so two jobs on the same scale serialize
  while jobs on different scales overlap.

Execution itself goes through the durable-jobs layer: each job attaches
a :class:`~repro.jobs.JobConfig` spooled under the scheduler's spool
directory and runs the sweep via :class:`~repro.jobs.runner.JobRunner`,
so a job that failed (a shard error stops it, with its reason) or a
service that crashed mid-sweep resumes from the journal when the query
is re-submitted (same digest -> same run directory).
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional

import numpy as np

from repro.engine.executor import teardown_failures
from repro.engine.session import SessionRegistry
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.jobs import JobConfig
from repro.jobs.journal import RUN_MARKER
from repro.service.events import JobEventBus, SpanPublishingTracer
from repro.service.protocol import (
    SERVICE_SWEEP_VERSION,
    SweepQuery,
    result_payload,
)

__all__ = ["SweepJob", "SweepScheduler"]

#: Span names published on job event streams — the progress-bearing
#: spans (shards, cubes, traces), not every inner timer.
PROGRESS_SPANS = frozenset(
    {
        "jobs.run",
        "jobs.shard",
        "optimizer.sweep",
        "optimizer.frontier",
        "executor.serial_fallback",
        "imiss.cube",
        "dmiss.cube",
        "cube.reduce",
        "cube.progress",
        "session.build",
        "session.prefetch_traces",
        "trace.synthesize",
    }
)

#: Finished jobs kept for GET /jobs/<id> before the oldest are retired.
_MAX_FINISHED_JOBS = 512

_LOG = logging.getLogger(__name__)


def _encode_memo(payload: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """A finished answer as a one-array bundle the disk tier can hold.

    The artifact store's disk tier persists numpy bundles, so the memo
    rides as UTF-8 JSON in a ``uint8`` array — which also means memoised
    answers participate in the store's LRU byte budget like any other
    artifact.
    """
    blob = json.dumps(payload, sort_keys=True).encode()
    return {"json": np.frombuffer(blob, dtype=np.uint8).copy()}


def _decode_memo(arrays: Any) -> Optional[Dict[str, Any]]:
    """Inverse of :func:`_encode_memo`; None for anything malformed."""
    if not isinstance(arrays, Mapping) or "json" not in arrays:
        return None
    try:
        payload = json.loads(np.asarray(arrays["json"], dtype=np.uint8).tobytes())
    except (ValueError, TypeError):
        return None
    return payload if isinstance(payload, dict) else None


@dataclass
class SweepJob:
    """One scheduled (or memo-answered) query and its lifecycle."""

    id: str
    query: SweepQuery
    tenant: str
    state: str = "queued"  # queued | running | done | failed
    cache_hit: bool = False
    coalesced: int = 0
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    submitted_s: float = 0.0
    started_s: float = 0.0
    finished_s: float = 0.0
    done: threading.Event = field(default_factory=threading.Event)
    _callbacks: List[Callable[["SweepJob"], None]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _callbacks_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def add_done_callback(self, fn: Callable[["SweepJob"], None]) -> None:
        """Call ``fn(job)`` once the job finishes, or now if it has.

        ``fn`` runs exactly once, on whichever thread finishes the job
        (or on the caller's thread for a job already done), so it must
        be quick and thread-safe; an exception it raises is logged, not
        propagated into the scheduler.
        """
        with self._callbacks_lock:
            if not self.done.is_set():
                self._callbacks.append(fn)
                return
        self._run_callback(fn)

    def _set_done(self) -> None:
        """Set :attr:`done`, then run every registered callback once."""
        with self._callbacks_lock:
            self.done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._run_callback(fn)

    def _run_callback(self, fn: Callable[["SweepJob"], None]) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - a waiter must not fail the job
            _LOG.exception("done-callback for job %s raised", self.id)

    def payload(self, include_result: bool = True) -> Dict[str, Any]:
        """JSON rendering for the HTTP layer."""
        body: Dict[str, Any] = {
            "job_id": self.id,
            "digest": self.query.digest,
            "tenant": self.tenant,
            "scale": self.query.scale,
            "objective": self.query.objective,
            "point_count": len(self.query.configs),
            "state": self.state,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
        }
        if self.error is not None:
            body["error"] = self.error
        if self.finished_s and self.submitted_s:
            body["wall_s"] = self.finished_s - self.submitted_s
        if include_result and self.result is not None:
            body["result"] = self.result
        return body


class SweepScheduler:
    """Round-robin fair, memoising scheduler over JobRunner sweeps.

    Args:
        registry: Session registry supplying per-scale measurements
            (default: a private one, so embedding a scheduler never
            perturbs the CLI's default sessions).
        store: The service store for finished answers (default: a
            memory+disk store namespaced ``service`` in the standard
            cache dir).
        workers: Worker-thread count (jobs on distinct scales overlap).
        spool_dir: Root for per-job durable run directories; ``None``
            disables the durability layer (tests mostly).
        max_disk_bytes: Disk budget of the service store, the memo of
            many tenants' answers (when the store has none of its own).
            Each scale session keeps its own unbudgeted store: the
            session maps its bundles while it answers, and the scale
            table bounds them.
        session_jobs: ``--jobs`` for each session's worker pool (trace
            synthesis and miss-cube builds).
    """

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        store: Optional[ArtifactStore] = None,
        workers: int = 2,
        spool_dir: Optional[Path] = None,
        max_disk_bytes: Optional[int] = None,
        session_jobs: int = 1,
        bus: Optional[JobEventBus] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        self.registry = registry if registry is not None else SessionRegistry()
        self.store = (
            store
            if store is not None
            else ArtifactStore(namespace="service", max_disk_bytes=max_disk_bytes)
        )
        self.bus = bus if bus is not None else JobEventBus()
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.session_jobs = session_jobs
        self.jobs: Dict[str, SweepJob] = {}
        self._finished: "OrderedDict[str, None]" = OrderedDict()
        self._inflight: Dict[str, SweepJob] = {}
        self._queues: Dict[str, Deque[SweepJob]] = {}
        self._rr: Deque[str] = deque()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._scale_locks: Dict[str, threading.Lock] = {}
        self._stats = {
            "submitted": 0,
            "memo_hits": 0,
            "coalesced": 0,
            "completed": 0,
            "failed": 0,
        }
        self._job_seq = itertools.count(1)
        self._stop = False
        self._threads: List[threading.Thread] = []
        self._workers = workers
        if self.store.max_disk_bytes is None and max_disk_bytes is not None:
            self.store.max_disk_bytes = max_disk_bytes
        self.store.scan_disk()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SweepScheduler":
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return self
            self._stop = False
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"sweep-worker-{index}",
                    daemon=True,
                )
                for index in range(self._workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers; queued jobs fail cleanly as 'shutdown'.

        Every session's worker pool is retired, its workers reaped.
        """
        with self._cond:
            self._stop = True
            drained: List[SweepJob] = []
            for queue in self._queues.values():
                drained.extend(queue)
                queue.clear()
            self._cond.notify_all()
        for job in drained:
            self._finish_job(job, error="scheduler shut down before execution")
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        for scale in list(self.registry.scales):
            if scale in self.registry:
                self.registry.get(scale).executor.retire_pool(wait=True)

    # -- submission ------------------------------------------------------------

    def submit(self, query: SweepQuery) -> SweepJob:
        """Queue (or instantly answer) one canonical query.

        Resolution order mirrors the store's tiers: a memoised answer in
        the service store completes the job synchronously with zero
        simulation; an in-flight job with the same digest absorbs this
        submission (coalescing); otherwise the job joins its tenant's
        queue and the round-robin picks it up.
        """
        digest = query.digest
        now = time.monotonic()
        with self._cond:
            self._stats["submitted"] += 1
            inflight = self._inflight.get(digest)
            if inflight is not None:
                inflight.coalesced += 1
                self._stats["coalesced"] += 1
                return inflight
        cached = _decode_memo(
            self.store.peek(
                "service_sweep",
                SERVICE_SWEEP_VERSION,
                persist=True,
                validate=lambda arrays: _decode_memo(arrays) is not None,
                digest=digest,
            )
        )
        job_id = f"{digest}-{next(self._job_seq)}"
        job = SweepJob(id=job_id, query=query, tenant=query.tenant)
        job.submitted_s = now
        if cached is not None:
            job.cache_hit = True
            job.result = dict(cached)
            job.result["cache"] = True
            with self._cond:
                self._stats["memo_hits"] += 1
                self._register(job)
            self.bus.publish(job.id, "memo_hit", digest=digest)
            self._finish_job(job)
            return job
        with self._cond:
            # Re-check under the lock: another thread may have started
            # (or even finished) the same digest while we peeked.
            inflight = self._inflight.get(digest)
            if inflight is not None:
                inflight.coalesced += 1
                self._stats["coalesced"] += 1
                return inflight
            if self._stop:
                raise ConfigurationError("scheduler is shut down")
            self._inflight[digest] = job
            self._register(job)
            queue = self._queues.get(query.tenant)
            if queue is None:
                queue = self._queues[query.tenant] = deque()
            if query.tenant not in self._rr:
                self._rr.append(query.tenant)
            queue.append(job)
            self._cond.notify()
        self.bus.publish(
            job.id,
            "queued",
            digest=digest,
            tenant=query.tenant,
            points=len(query.configs),
        )
        return job

    def job(self, job_id: str) -> Optional[SweepJob]:
        with self._lock:
            return self.jobs.get(job_id)

    def _register(self, job: SweepJob) -> None:
        """Track a job for GET /jobs/<id>; caller holds the lock."""
        self.jobs[job.id] = job

    # -- fair scheduling -------------------------------------------------------

    def _next_job(self) -> Optional[SweepJob]:
        """One round-robin turn; caller holds the lock.

        Tenants take strict turns: the head tenant serves at most one
        job and rotates to the back, so a burst from one tenant
        interleaves 1:1 with every other tenant's queue.
        """
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(tenant)
            if queue:
                return queue.popleft()
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                job = self._next_job()
                while job is None and not self._stop:
                    self._cond.wait(timeout=0.5)
                    job = self._next_job()
                if job is None and self._stop:
                    return
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 - job errors are payloads
                self._finish_job(job, error=f"{type(exc).__name__}: {exc}")

    # -- execution -------------------------------------------------------------

    def _scale_lock(self, scale: str) -> threading.Lock:
        with self._lock:
            lock = self._scale_locks.get(scale)
            if lock is None:
                lock = self._scale_locks[scale] = threading.Lock()
            return lock

    def _job_config(self, job: SweepJob) -> Optional[JobConfig]:
        if self.spool_dir is None:
            return None
        run_dir = self.spool_dir / f"job-{job.query.digest}"
        return JobConfig(run_dir=run_dir, resume=(run_dir / RUN_MARKER).exists())

    def _run_job(self, job: SweepJob) -> None:
        from repro.core.optimizer import DesignOptimizer

        job.state = "running"
        job.started_s = time.monotonic()
        self.bus.publish(job.id, "started", digest=job.query.digest)
        scale_lock = self._scale_lock(job.query.scale)
        with scale_lock:
            session = self.registry.get(job.query.scale, jobs=self.session_jobs)
            tracer = SpanPublishingTracer(self.bus, job.id, names=PROGRESS_SPANS)
            previous_tracer = session.tracer
            previous_jobs = session.job_config
            session.attach_tracer(tracer)
            job_config = self._job_config(job)
            if job_config is not None:
                session.attach_jobs(job_config)
            try:
                optimizer = DesignOptimizer(session)
                # One scored pass serves every objective; selecting the
                # frontier here (rather than just sweeping) publishes the
                # optimizer.frontier span on the job's event stream and
                # never errors on an over-constrained budget — the
                # payload renders an empty feasible set instead.
                selection = optimizer.select(
                    list(job.query.configs),
                    objective="frontier",
                    max_area_cm2=job.query.max_area_cm2,
                    max_power_w=job.query.max_power_w,
                )
                points = list(selection.points)
            finally:
                session.attach_tracer(previous_tracer)
                session.attach_jobs(previous_jobs)
        result = result_payload(job.query, points)
        self.store.put(
            "service_sweep",
            SERVICE_SWEEP_VERSION,
            _encode_memo(result),
            persist=True,
            digest=job.query.digest,
        )
        result["cache"] = False
        job.result = result
        self._finish_job(job)

    def _finish_job(self, job: SweepJob, error: Optional[str] = None) -> None:
        job.finished_s = time.monotonic()
        with self._cond:
            self._inflight.pop(job.query.digest, None)
            if error is not None:
                job.state = "failed"
                job.error = error
                self._stats["failed"] += 1
            else:
                job.state = "done"
                self._stats["completed"] += 1
            self._finished[job.id] = None
            retired = []
            while len(self._finished) > _MAX_FINISHED_JOBS:
                old_id, _ = self._finished.popitem(last=False)
                self.jobs.pop(old_id, None)
                retired.append(old_id)
        kind = "failed" if error is not None else "done"
        self.bus.publish(
            job.id,
            kind,
            digest=job.query.digest,
            cache_hit=job.cache_hit,
            error=error,
        )
        self.bus.close(job.id)
        for old_id in retired:
            self.bus.forget(old_id)
        job._set_done()

    # -- reporting -------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-safe counters: scheduler, store, executor teardown."""
        with self._lock:
            queued = {
                tenant: len(queue)
                for tenant, queue in self._queues.items()
                if queue
            }
            payload: Dict[str, Any] = dict(self._stats)
            payload["inflight"] = len(self._inflight)
            payload["jobs_tracked"] = len(self.jobs)
        payload["queued"] = queued
        payload["store"] = self.store.stats().as_dict()
        sessions = {}
        for scale in list(self.registry.scales):
            if scale in self.registry:
                session = self.registry.get(scale)
                sessions[scale] = session.store.stats().as_dict()
        payload["sessions"] = sessions
        payload["executor_teardown_failures"] = teardown_failures()
        return payload
