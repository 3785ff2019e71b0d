"""Parallel execution of a session's trace prefetch and cube builds.

:class:`SweepExecutor` maps a picklable function over a list of items
with deterministic, input-ordered results, on one of two backends:

* ``serial`` — a plain in-process loop (one job: the reference
  behaviour the pool must reproduce exactly);
* ``process`` — a ``ProcessPoolExecutor`` of ``jobs`` workers, each
  item dispatched on its own.

A measurement session owns one executor.  Its tasks are pure functions
of their items (a benchmark to synthesize into the disk tier, a cube
task over a stream file), so a worker needs nothing the parent built
after it forked; design points are evaluated in the parent.  Every item
is heavy (one benchmark's trace synthesis, one cube or check task), so
per-item dispatch costs nothing measurable and lets an idle worker
take the next item in list order.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER

__all__ = ["SweepExecutor", "teardown_failures"]

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


class SweepExecutor:
    """Order-preserving map over task items, serial or multi-process.

    Args:
        jobs: Worker process count; 1 maps in this process.
        start_method: Optional multiprocessing start method override
            (``"fork"``, ``"spawn"``, ``"forkserver"``), mainly for tests.
    """

    def __init__(self, jobs: int = 1, start_method: Optional[str] = None) -> None:
        jobs = int(jobs)
        if jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs
        self.tracer = NULL_TRACER
        self._start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Item whose worker the next parallel map kills
        #: (:meth:`inject_worker_exit`).
        self._exit_at: Optional[int] = None

    # -- properties ------------------------------------------------------------

    @property
    def start_method(self) -> Optional[str]:
        """The effective multiprocessing start method (None when serial)."""
        if self.is_serial:
            return None
        return self._start_method or multiprocessing.get_start_method()

    @property
    def backend(self) -> str:
        """``"serial"`` for one job, ``"process"`` for more (a fact the
        spans and the run ledger report)."""
        return "serial" if self.jobs == 1 else "process"

    @property
    def is_serial(self) -> bool:
        return self.jobs == 1

    @property
    def is_parallel(self) -> bool:
        return self.jobs > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepExecutor(jobs={self.jobs}, backend={self.backend!r})"

    # -- mapping ---------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item; results are in input order.

        On the process backend ``fn`` and every item must be picklable,
        and each item is dispatched on its own.  A worker crash (OOM
        kill, hard exit) breaks the whole :class:`ProcessPoolExecutor`,
        but items whose futures already returned are *kept*: only the
        unfinished items are re-dispatched on a fresh pool, so completed
        work never re-executes.  After two consecutive pool breaks
        without a single item completing in between, the broken pool is
        shut down, its workers reaped, and this process runs the
        unfinished items itself, in order, under an
        ``executor.serial_fallback`` span: every caller gets its
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
            results: List[Any] = [None] * len(items)
            pending = set(range(len(items)))
            exit_at, self._exit_at = self._exit_at, None
            fruitless_breaks = 0
            while pending and fruitless_breaks < 2:
                if self._pool is None:
                    span.count("pool_forks")
                pool = self._ensure_pool()
                futures = {}
                broke = False
                try:
                    for index in sorted(pending):
                        task = _exit_worker if index == exit_at else fn
                        futures[index] = pool.submit(task, items[index])
                except BrokenProcessPool:
                    broke = True
                exit_at = None
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
                self.retire_pool(wait=fruitless_breaks >= 2)
            if pending:
                with self.tracer.span(
                    "executor.serial_fallback",
                    reason=f"the worker pool (jobs={self.jobs}) broke twice "
                    f"without finishing an item; a worker was killed "
                    f"(out of memory?)",
                ) as fallback:
                    fallback.count("items", len(pending))
                    for index in sorted(pending):
                        results[index] = fn(items[index])
            return results

    def inject_worker_exit(self, index: Optional[int]) -> None:
        """Kill the worker that runs item ``index`` of the next parallel map.

        Fault injection (``--inject-fault worker-exit``): the next
        process-backend :meth:`map` submits that item through
        :func:`_exit_worker`, which hard-exits the worker before the
        item runs, as an OOM kill would.  The hook clears itself there,
        so the re-dispatch runs the item normally.  A map that runs in
        this process (the serial backend, or a single item) never fires
        it; ``None`` disarms a hook that no map fired.
        """
        self._exit_at = index

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

    def retire_pool(self, wait: bool = False) -> None:
        """Shut the worker pool down; the executor stays usable.

        The next parallel :meth:`map` forks fresh workers.  With
        ``wait``, returns once every worker has exited and been reaped,
        so the process's ``RUSAGE_CHILDREN`` figures include them and no
        later pool forks beside their exiting threads.
        """
        # getattr: __del__ reaches here even when __init__ raised before
        # the executor finished constructing (no _pool attribute yet).
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def __del__(self) -> None:
        """Last-resort pool cleanup when an executor is garbage collected.

        :meth:`retire_pool` is the real API and propagates failures;
        this safety net only exists for executors dropped without one.
        A failure here is narrowed to the errors pool shutdown can
        actually raise (OS resources, interpreter teardown races) and is
        logged + counted rather than silently swallowed — anything else
        is a genuine bug and is allowed to surface through the
        interpreter's unraisable-exception hook.
        """
        try:
            self.retire_pool()
        except (OSError, RuntimeError) as exc:
            _record_teardown_failure(exc)


# -- worker-side helper ----------------------------------------------------
#
# It runs inside pool workers, so it must be importable at module level.


def _exit_worker(item: Any) -> Any:
    """Worker task for :meth:`SweepExecutor.inject_worker_exit`: the
    worker dies before the item runs."""
    os._exit(1)
