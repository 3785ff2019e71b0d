"""Parallel sweep execution over design points and benchmark traces.

:class:`SweepExecutor` maps a picklable function over a list of items
with deterministic, input-ordered results, on one of two backends:

* ``serial`` — a plain in-process loop (the default, and the reference
  behaviour every other backend must reproduce exactly);
* ``process`` — a ``ProcessPoolExecutor`` with chunked dispatch.

Worker-side sessions
--------------------

Sweep workers need a full measurement session to evaluate a design
point.  Shipping the session itself per task would be prohibitive, so
each task carries only the session's
:class:`~repro.engine.session.MeasurementSpec`, and a worker gets the
session in one of two ways:

* a *forked* worker inherits it: the parent *primes* the executor with
  its live (already warm) session before the pool is created, so the
  worker sees every memoized trace, stream and miss count through
  copy-on-write memory and rebuilds none of them;
* a *spawned* worker cannot see the primed object and rebuilds the
  session from the spec, once per process (module-level cache), over
  the parent session's own disk tier
  (:class:`~repro.engine.store.ArtifactStore`), from which it maps the
  traces and compiled programs back instead of re-synthesizing them.

Both ways produce identical results.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER

__all__ = ["SweepExecutor", "BACKENDS", "retire_inherited", "teardown_failures"]

BACKENDS = ("serial", "process")

_LOG = logging.getLogger(__name__)

#: Count of pool-shutdown failures swallowed during garbage collection.
#: ``__del__`` cannot let an exception escape (the interpreter would only
#: print it and continue, detached from any caller), but a worker pool
#: that fails to shut down is a real signal — leaked processes, a wedged
#: semaphore — so each one is logged and counted here instead of being
#: silently discarded.  Exposed through :func:`teardown_failures` for
#: tests and the service stats endpoint.
_TEARDOWN_FAILURES = 0


def _record_teardown_failure(exc: BaseException) -> None:
    global _TEARDOWN_FAILURES
    _TEARDOWN_FAILURES += 1
    _LOG.warning(
        "sweep executor pool shutdown failed during teardown: %s: %s",
        type(exc).__name__,
        exc,
    )


def teardown_failures() -> int:
    """How many pool shutdowns have failed during executor teardown."""
    return _TEARDOWN_FAILURES

#: Live objects forked workers inherit via copy-on-write, keyed by spec
#: digest.  Populated in the parent by :meth:`SweepExecutor.prime` before
#: pool creation; empty (and therefore inert) in spawned workers.  At
#: most one session lives here at a time: priming a new session retires
#: every previously primed one (workers only ever need the session being
#: swept *now*, and retired sessions would otherwise leak their traces
#: and memo stores for the life of the process).
_FORK_INHERITED: Dict[str, Any] = {}

#: The pid of the process that primed :data:`_FORK_INHERITED`.  A process
#: with another pid that finds a session there inherited it across a fork.
_PRIMED_PID: Optional[int] = None


def retire_inherited(digest: Optional[str] = None) -> None:
    """Drop fork-inheritable session state: one digest, or all of it.

    Called by :class:`~repro.engine.session.SessionRegistry` when it
    swaps or discards a session, and usable directly by tests.  Workers
    forked earlier keep their copy-on-write snapshot; later forks simply
    fall back to rebuilding the session from its spec, which is always
    correct.
    """
    if digest is None:
        _FORK_INHERITED.clear()
    else:
        _FORK_INHERITED.pop(digest, None)

#: Sessions a worker process has rebuilt from their specs, so one worker
#: rehydrates at most once per distinct session.
_WORKER_SESSIONS: Dict[str, Any] = {}


class SweepExecutor:
    """Order-preserving map over sweep items, serial or multi-process.

    Args:
        jobs: Worker process count; 1 selects the serial backend unless
            ``backend`` says otherwise.
        backend: ``"serial"`` or ``"process"`` (default: serial for
            ``jobs == 1``, process otherwise).
        start_method: Optional multiprocessing start method override
            (``"fork"``, ``"spawn"``, ``"forkserver"``), mainly for tests.
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        jobs = int(jobs)
        if jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
        if backend is None:
            backend = "serial" if jobs == 1 else "process"
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown sweep backend {backend!r}; choose from {BACKENDS}"
            )
        self.jobs = 1 if backend == "serial" else jobs
        self.backend = backend
        self.tracer = NULL_TRACER
        self._start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Item whose worker the next parallel map kills
        #: (:meth:`inject_worker_exit`).
        self._exit_at: Optional[int] = None
        #: Digest of the session this executor last primed.
        self._primed: Optional[str] = None

    # -- properties ------------------------------------------------------------

    @property
    def start_method(self) -> Optional[str]:
        """The effective multiprocessing start method (None when serial)."""
        if self.is_serial:
            return None
        return self._start_method or multiprocessing.get_start_method()

    @property
    def is_serial(self) -> bool:
        return self.backend == "serial"

    @property
    def is_parallel(self) -> bool:
        return self.backend == "process"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepExecutor(jobs={self.jobs}, backend={self.backend!r})"

    # -- mapping ---------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item; results are in input order.

        On the process backend ``fn`` and every item must be picklable;
        dispatch is chunked (``chunk_size`` items, by default about four
        chunks per worker) so per-task IPC overhead amortizes.  A worker
        crash (OOM kill, hard exit) breaks the whole
        :class:`ProcessPoolExecutor`, but chunks whose futures already
        returned are *kept*: only the unfinished chunks are re-dispatched
        on a fresh pool, so completed work never re-executes.  After two
        consecutive pool breaks without a single chunk completing in
        between, the broken pool is shut down, its workers reaped, and
        this process runs the unfinished chunks itself, in order, under
        an ``executor.serial_fallback`` span: every caller gets its
        results, and the executor stays usable.  A task's own exception
        propagates as raised.  The ``executor.map`` span counts
        ``pool_forks`` whenever the map has to fork a pool (its first
        map, or the first after a retire or a break), and
        ``pool_restarts`` per break; a map on a live pool reuses its
        workers.
        """
        items = list(items)
        with self.tracer.span(
            "executor.map", backend=self.backend, jobs=self.jobs
        ) as span:
            span.count("items", len(items))
            if self.is_serial or len(items) <= 1:
                return [fn(item) for item in items]
            chunk = chunk_size or self._default_chunk(len(items))
            chunks = [items[i : i + chunk] for i in range(0, len(items), chunk)]
            results: List[Optional[List[Any]]] = [None] * len(chunks)
            pending = set(range(len(chunks)))
            exit_at, self._exit_at = self._exit_at, None
            exit_chunk = None if exit_at is None else exit_at // chunk
            fruitless_breaks = 0
            while pending and fruitless_breaks < 2:
                if self._pool is None:
                    span.count("pool_forks")
                pool = self._ensure_pool()
                futures = {}
                broke = False
                try:
                    for index in sorted(pending):
                        task = _exit_worker if index == exit_chunk else _apply_chunk
                        futures[index] = pool.submit(task, fn, chunks[index])
                except BrokenProcessPool:
                    broke = True
                exit_chunk = None
                progressed = 0
                for index in sorted(futures):
                    try:
                        results[index] = futures[index].result()
                    except BrokenProcessPool:
                        # The pool is unrecoverable once any worker
                        # dies; every future it still holds is dead too.
                        broke = True
                    else:
                        pending.discard(index)
                        progressed += 1
                if not broke:
                    break
                span.count("pool_restarts")
                fruitless_breaks = 0 if progressed else fruitless_breaks + 1
                # A pool given up on is reaped before this process takes
                # over its work, so no dying worker competes for memory.
                self._shutdown_pool(wait=fruitless_breaks >= 2)
            if pending:
                with self.tracer.span(
                    "executor.serial_fallback",
                    reason=f"the worker pool (jobs={self.jobs}) broke twice "
                    f"without finishing a chunk; a worker was killed "
                    f"(out of memory?)",
                ) as fallback:
                    fallback.count(
                        "items", sum(len(chunks[index]) for index in pending)
                    )
                    for index in sorted(pending):
                        results[index] = _apply_chunk(fn, chunks[index])
            return [value for chunk_result in results for value in chunk_result]

    def inject_worker_exit(self, index: int) -> None:
        """Kill the worker that runs item ``index`` of the next parallel map.

        Fault injection (``--inject-fault worker-exit``): the next
        process-backend :meth:`map` submits the chunk holding that item
        through :func:`_exit_worker`, which hard-exits the worker before
        the chunk runs, as an OOM kill would.  The hook clears itself
        there, so the re-dispatch runs the chunk normally.  A map that
        runs in this process (the serial backend, or a single item)
        never fires it.
        """
        self._exit_at = index

    def _default_chunk(self, count: int) -> int:
        """About four chunks per worker, clamped to the sweep size.

        The clamp matters for tiny sweeps: a chunk larger than the item
        count would put the whole sweep into a single dispatch and
        serialize it onto one worker.  With the clamped value every
        worker can receive at least one chunk whenever there are at
        least as many items as workers.
        """
        if count <= 0:
            return 1
        return max(1, min(count, -(-count // (self.jobs * 4))))  # ceil

    # -- fork-time state inheritance -------------------------------------------

    def prime(self, digest: str, session: Any) -> None:
        """Make a live session inheritable by workers forked later.

        Forked workers see the session as it stands when they fork, so
        the caller builds what they should share (the benchmarks and the
        grid's miss cubes) first; priming itself builds nothing.
        Spawned workers never see it and rebuild the session from its
        spec.  If the pool already exists (its workers were forked
        before this state existed) it is retired, and its workers
        reaped, so the next :meth:`map` re-forks with the session
        visible.  A no-op for already-primed sessions.

        Any previously primed session (same digest with a different live
        object, or a different session/scale entirely) is retired first,
        so the module-global inheritance table never grows beyond the
        one session currently being swept.
        """
        global _PRIMED_PID
        self._primed = digest
        if _FORK_INHERITED.get(digest) is session:
            return
        retire_inherited()
        _FORK_INHERITED[digest] = session
        _PRIMED_PID = os.getpid()
        self._shutdown_pool(wait=True)

    # -- pool lifecycle --------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = (
                multiprocessing.get_context(self._start_method)
                if self._start_method
                else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._pool

    def _shutdown_pool(self, wait: bool = False) -> None:
        # getattr: __del__ reaches here even when __init__ raised before
        # the executor finished constructing (no _pool attribute yet).
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def retire_pool(self, wait: bool = False) -> None:
        """Shut the worker pool down but keep the primed session.

        The next :meth:`map` forks fresh workers, which see everything
        the parent has built since the retired pool forked.  With
        ``wait``, returns once every worker has exited and been reaped,
        so the process's ``RUSAGE_CHILDREN`` figures include them.
        """
        self._shutdown_pool(wait)

    def shutdown(self) -> None:
        """Release worker processes and primed state (stays usable).

        Retiring the session this executor primed matters: the pool is
        gone, so nothing will ever fork against it again — leaving it
        pinned would hold the session's trace arrays for the life of
        the process.  An executor that primed nothing leaves other
        executors' primed sessions alone.
        """
        self._shutdown_pool()
        if self._primed is not None:
            retire_inherited(self._primed)
            self._primed = None

    def __del__(self) -> None:
        """Last-resort pool cleanup when an executor is garbage collected.

        ``shutdown()`` is the real API and propagates failures; this
        safety net only exists for executors dropped without one.  A
        failure here is narrowed to the errors pool shutdown can
        actually raise (OS resources, interpreter teardown races) and is
        logged + counted rather than silently swallowed — anything else
        is a genuine bug and is allowed to surface through the
        interpreter's unraisable-exception hook.
        """
        try:
            self._shutdown_pool()
        except (OSError, RuntimeError) as exc:
            _record_teardown_failure(exc)


# -- worker-side helpers ---------------------------------------------------
#
# These run inside pool workers, so they must be importable at module
# level and must import the heavier repro layers lazily: this module is
# imported by repro.core.measurement, and importing core back at module
# level would be circular.


def _apply_chunk(fn: Callable[[Any], Any], chunk: List[Any]) -> List[Any]:
    """Worker task: one dispatched chunk (module-level for pickling)."""
    return [fn(item) for item in chunk]


def _exit_worker(fn: Callable[[Any], Any], chunk: List[Any]) -> List[Any]:
    """Worker task for :meth:`SweepExecutor.inject_worker_exit`: the
    worker dies before the chunk runs."""
    os._exit(1)


def session_for_spec(spec: Any) -> Any:
    """The worker's measurement session for a spec: inherited or rebuilt.

    Resolution order: a fork-inherited live session (free, already
    warm), then this worker's session cache, then a fresh build (on a
    serial executor) that maps its traces back from the session's disk
    tier.  In the process that primed it, the primed session is the
    parent's own (a dead pool's chunks finishing there), and it keeps
    its executors.
    """
    digest = spec.digest()
    session = _FORK_INHERITED.get(digest)
    if session is None:
        session = _WORKER_SESSIONS.get(digest)
        if session is None:
            session = spec.build()
            _WORKER_SESSIONS[digest] = session
    elif os.getpid() != _PRIMED_PID:
        if session.executor.is_parallel:
            # An inherited session carries the parent's parallel
            # executor; a worker must never fan out a nested pool of
            # its own.
            session.executor = SweepExecutor(jobs=1)
        # Nor a build pool: a plane this worker has to rebuild is built
        # in the worker.  The parent retired its build pool before the
        # sweep pool forked, so dropping the inherited build executor
        # stops nothing.
        session.attach_cube_jobs(1)
    return session


def evaluate_design_point(item: Tuple[Any, Any, Any, Any]) -> Any:
    """Worker task: evaluate one ``SystemConfig`` against a session spec.

    The item carries the full pricing context — delay technology *and*
    physical (energy/area) technology — so a worker's point is
    bit-identical to the serial path's under any coefficient override.
    """
    spec, tech, phys, config = item
    from repro.core.optimizer import DesignOptimizer

    measurement = session_for_spec(spec)
    optimizer = DesignOptimizer(
        measurement, tech=tech, executor=SweepExecutor(jobs=1), phys=phys
    )
    return optimizer.evaluate(config)
