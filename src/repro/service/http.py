"""The asyncio HTTP/JSON front end of the sweep service.

Hand-rolled HTTP/1.1 on :func:`asyncio.start_server` — the environment
is stdlib-only, so there is no web framework here, just a small parser
for the five routes the service speaks:

========  ==========================  =========================================
method    path                        meaning
========  ==========================  =========================================
GET       ``/healthz``                liveness probe
GET       ``/v1/stats``               scheduler + store + session counters
POST      ``/v1/sweeps``              submit a query (``"wait": true`` blocks)
GET       ``/v1/jobs/<id>``           one job's state (and result when done)
GET       ``/v1/jobs/<id>/events``    chunked NDJSON progress stream
========  ==========================  =========================================

Every response is JSON.  The events route streams with
``Transfer-Encoding: chunked``, one event per line, flushing each event
as it is published — a client watching a running sweep sees shard
completions and cube builds as they happen.  Event consumption is
async-polled off the bus's snapshots (cheap, lock-guarded list copies)
rather than parking a thread per subscriber, so a thousand idle
streams cost no threads.  A ``"wait": true`` submission does not poll:
the job's done-callback wakes the waiting request the moment the job
finishes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import unquote, urlsplit

from repro.errors import ConfigurationError
from repro.service.protocol import parse_query
from repro.service.scheduler import SweepScheduler
from repro.utils.jsonio import jsonable

__all__ = ["SweepService"]

#: Request body ceiling — a full 4096-point grid in the verbose list
#: form fits comfortably; anything bigger is not a sweep query.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Request-line + headers ceiling.
_MAX_HEAD_BYTES = 32 * 1024

#: How often an events stream re-checks the bus for new events.
_EVENT_POLL_S = 0.05

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def _resolve(future: "asyncio.Future[None]") -> None:
    """Complete a wake future unless a timeout already cancelled it."""
    if not future.done():
        future.set_result(None)


class _HttpError(Exception):
    """A request failure that maps straight onto a status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class SweepService:
    """The HTTP server wrapping one :class:`SweepScheduler`.

    Args:
        scheduler: The scheduler answering queries (started on
            :meth:`start` if it is not running yet).
        host: Bind address (default loopback — the service is an
            internal API, not an internet-facing one).
        port: Bind port; ``0`` picks a free port, readable from
            :attr:`port` after :meth:`start`.
        stream_deadline_s: Hard ceiling on one events stream's lifetime,
            so an abandoned subscriber can never hold a socket forever.
        wait_timeout_s: Ceiling on a ``"wait": true`` submission —
            longer sweeps return 408 with the job id so the client can
            poll or stream instead.
    """

    def __init__(
        self,
        scheduler: SweepScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        stream_deadline_s: float = 600.0,
        wait_timeout_s: float = 600.0,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.stream_deadline_s = stream_deadline_s
        self.wait_timeout_s = wait_timeout_s
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "SweepService":
        """Bind the listening socket and start scheduler workers."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.scheduler.close()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query_string, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            try:
                await self._dispatch(writer, method, path, query_string, body)
            except _HttpError as exc:
                await self._send_json(writer, exc.status, {"error": exc.message})
            except ConfigurationError as exc:
                await self._send_json(writer, 400, {"error": str(exc)})
            except ConnectionError:
                pass
            except Exception as exc:  # noqa: BLE001 - the server must survive
                await self._send_json(
                    writer,
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, str, bytes]:
        """Parse one request; returns (method, path, query-string, body)."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head too large") from None
        if len(head) > _MAX_HEAD_BYTES:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        split = urlsplit(target)
        path = unquote(split.path)
        body = b""
        length_header = headers.get("content-length", "0")
        try:
            length = int(length_header)
        except ValueError:
            raise _HttpError(400, f"bad Content-Length: {length_header!r}") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        if length:
            body = await reader.readexactly(length)
        return method, path, split.query, body

    # -- routing ---------------------------------------------------------------

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query_string: str,
        body: bytes,
    ) -> None:
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            await self._send_json(writer, 200, {"ok": True})
            return
        if path == "/v1/stats":
            if method != "GET":
                raise _HttpError(405, "stats is GET-only")
            await self._send_json(writer, 200, jsonable(self.scheduler.stats()))
            return
        if path == "/v1/sweeps":
            if method != "POST":
                raise _HttpError(405, "sweeps is POST-only")
            await self._handle_submit(writer, body)
            return
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise _HttpError(405, "jobs is GET-only")
            remainder = path[len("/v1/jobs/") :]
            if remainder.endswith("/events"):
                job_id = remainder[: -len("/events")].rstrip("/")
                await self._handle_events(writer, job_id, query_string)
            else:
                await self._handle_job(writer, remainder)
            return
        raise _HttpError(404, f"no route for {path!r}")

    async def _handle_submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        wait = payload.get("wait", False)
        if not isinstance(wait, bool):
            raise _HttpError(400, "'wait' must be a boolean")
        query = parse_query(payload, scales=self.scheduler.registry.scales)
        job = self.scheduler.submit(query)
        if wait:
            done = await self._await_job(job, self.wait_timeout_s)
            if not done:
                raise _HttpError(
                    408,
                    f"job {job.id} still running after {self.wait_timeout_s}s; "
                    f"poll /v1/jobs/{job.id} or stream its events",
                )
            await self._send_json(writer, 200, job.payload())
            return
        status = 200 if job.done.is_set() else 202
        await self._send_json(
            writer, status, job.payload(include_result=job.done.is_set())
        )

    async def _await_job(self, job: Any, timeout_s: float) -> bool:
        """Wait for a job without polling or parking a thread.

        The job's done-callback runs on the thread that finishes it and
        hands the wake to this loop; False when ``timeout_s`` passes
        first.  A wake that finds the loop closed (the server shut down
        while the job ran) is dropped: nobody is left waiting.
        """
        if job.done.is_set():
            return True
        loop = asyncio.get_running_loop()
        woken = loop.create_future()

        def wake(_job: Any) -> None:
            try:
                loop.call_soon_threadsafe(_resolve, woken)
            except RuntimeError:  # the loop is closed
                pass

        job.add_done_callback(wake)
        try:
            await asyncio.wait_for(woken, timeout_s)
        except asyncio.TimeoutError:  # not the builtin TimeoutError on 3.10
            return job.done.is_set()
        return True

    async def _handle_job(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        job = self.scheduler.job(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        await self._send_json(writer, 200, job.payload())

    async def _handle_events(
        self, writer: asyncio.StreamWriter, job_id: str, query_string: str
    ) -> None:
        """Stream a job's events as chunked NDJSON until it closes."""
        job = self.scheduler.job(job_id)
        bus = self.scheduler.bus
        if job is None and not bus.closed(job_id) and not bus.snapshot(job_id):
            raise _HttpError(404, f"unknown job {job_id!r}")
        after = 0
        for pair in query_string.split("&"):
            name, _, value = pair.partition("=")
            if name == "after":
                try:
                    after = int(value)
                except ValueError:
                    raise _HttpError(400, f"bad 'after' cursor {value!r}") from None
        await self._send_head(
            writer,
            200,
            {
                "Content-Type": "application/x-ndjson",
                "Transfer-Encoding": "chunked",
            },
        )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.stream_deadline_s
        cursor = after
        dropped = bus.dropped(job_id)
        if dropped:
            await self._send_chunk(
                writer, {"kind": "dropped", "count": dropped}
            )
        while True:
            pending = [
                event
                for event in bus.snapshot(job_id)
                if event["seq"] > cursor
            ]
            for event in pending:
                cursor = event["seq"]
                await self._send_chunk(writer, event)
            if not pending and bus.closed(job_id):
                break
            if loop.time() >= deadline:
                await self._send_chunk(
                    writer, {"kind": "deadline", "cursor": cursor}
                )
                break
            await asyncio.sleep(_EVENT_POLL_S)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- response plumbing -----------------------------------------------------

    async def _send_head(
        self, writer: asyncio.StreamWriter, status: int, headers: Dict[str, str]
    ) -> None:
        text = _STATUS_TEXT.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {text}", "Connection: close"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        body = (
            json.dumps(jsonable(payload), sort_keys=True, allow_nan=False) + "\n"
        ).encode()
        await self._send_head(
            writer,
            status,
            {
                "Content-Type": "application/json",
                "Content-Length": str(len(body)),
            },
        )
        writer.write(body)
        await writer.drain()

    async def _send_chunk(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        data = (
            json.dumps(jsonable(payload), sort_keys=True, allow_nan=False) + "\n"
        ).encode()
        writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        await writer.drain()
