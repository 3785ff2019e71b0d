"""Per-job progress events: the feed behind ``GET /jobs/<id>/events``.

The scheduler publishes lifecycle events (queued, started, finished) and
a :class:`SpanPublishingTracer` mirrors the observability layer's span
exits (shard completions, miss-cube builds, trace synthesis) into the
same per-job buffers.  The HTTP events route polls
:meth:`JobEventBus.snapshot` from the event loop and stops once
:meth:`JobEventBus.closed` holds and every buffered event is sent.

Buffers are bounded: a job that emits more events than a client consumes
drops its *oldest* events (counted, and visible as a gap in ``seq``), so
a slow or absent subscriber can never grow the service's memory without
limit.  Events are plain JSON-safe dicts from birth — everything that
enters the bus goes through :func:`repro.utils.jsonio.jsonable`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.obs.tracer import Span, Tracer
from repro.utils.jsonio import jsonable

__all__ = ["JobEventBus", "SpanPublishingTracer"]


class JobEventBus:
    """Thread-safe, bounded, per-job event buffers."""

    def __init__(self, max_buffered: int = 2048) -> None:
        if max_buffered < 1:
            raise ValueError("max_buffered must be at least 1")
        self.max_buffered = max_buffered
        self._lock = threading.Lock()
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._seq: Dict[str, int] = {}
        self._dropped: Dict[str, int] = {}
        self._closed: Dict[str, bool] = {}

    # -- producing -------------------------------------------------------------

    def publish(self, job_id: str, kind: str, **data: Any) -> Dict[str, Any]:
        """Append one event to a job's buffer."""
        with self._lock:
            seq = self._seq.get(job_id, 0) + 1
            self._seq[job_id] = seq
            event = {"seq": seq, "kind": kind, **jsonable(data)}
            buffer = self._events.setdefault(job_id, [])
            buffer.append(event)
            if len(buffer) > self.max_buffered:
                dropped = len(buffer) - self.max_buffered
                del buffer[:dropped]
                self._dropped[job_id] = self._dropped.get(job_id, 0) + dropped
            return event

    def close(self, job_id: str) -> None:
        """Mark a job's events finished; a reader drains them and stops."""
        with self._lock:
            self._closed[job_id] = True

    def forget(self, job_id: str) -> None:
        """Drop a job's buffer entirely (retired jobs).

        The closed flag is kept (a single bool) so a reader that polls
        after the buffer vanishes still sees a finished stream instead of
        waiting for events that can never come.
        """
        with self._lock:
            self._events.pop(job_id, None)
            self._seq.pop(job_id, None)
            self._dropped.pop(job_id, None)
            self._closed[job_id] = True

    # -- consuming -------------------------------------------------------------

    def snapshot(self, job_id: str) -> List[Dict[str, Any]]:
        """Every buffered event for a job (oldest first)."""
        with self._lock:
            return list(self._events.get(job_id, ()))

    def dropped(self, job_id: str) -> int:
        """How many of a job's oldest events were dropped by the bound."""
        with self._lock:
            return self._dropped.get(job_id, 0)

    def closed(self, job_id: str) -> bool:
        with self._lock:
            return self._closed.get(job_id, False)


class SpanPublishingTracer(Tracer):
    """A :class:`~repro.obs.tracer.Tracer` that mirrors span exits to a bus.

    The tracer is still a full recording tracer (span forest, counters),
    so attaching it to a session changes nothing about profiling; it
    additionally publishes every *completed* span — name, wall time,
    attributes, counters — as a ``span`` event on the owning job's
    stream.  ``names`` restricts publication to interesting spans (shard
    completions, cube builds) so high-frequency inner spans cannot flood
    the buffer.
    """

    def __init__(
        self,
        bus: JobEventBus,
        job_id: str,
        names: Optional[Any] = None,
    ) -> None:
        super().__init__()
        self.bus = bus
        self.job_id = job_id
        self.names = None if names is None else frozenset(names)

    def _pop(self, span: Span) -> None:
        was_open = any(entry is span for entry in self._stack)
        super()._pop(span)
        if not was_open:
            # A mismatched or double exit — the base class treats it as
            # a no-op, and publishing it would fabricate progress.
            return
        if self.names is not None and span.name not in self.names:
            return
        self.bus.publish(
            self.job_id,
            "span",
            name=span.name,
            wall_s=span.wall_s,
            attrs=dict(span.attrs),
            counters=dict(span.counters),
        )
