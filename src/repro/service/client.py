"""A small blocking client for the sweep service (stdlib ``http.client``).

The client is what the benchmark and the tests speak; it is also the
reference for anyone integrating from outside Python — every method maps
one-to-one onto an HTTP route documented in :mod:`repro.service.http`.

``http.client`` de-chunks ``Transfer-Encoding: chunked`` bodies
transparently, so :meth:`ServiceClient.events` simply reads the NDJSON
stream line by line and yields events as they arrive.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.errors import ConfigurationError

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(ConfigurationError):
    """An HTTP-level failure from the sweep service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"service returned {status}: {message}")
        self.status = status


class ServiceClient:
    """One service endpoint; a new connection per call (the server is
    ``Connection: close``), so a client instance is cheap and reusable
    across threads as long as each thread makes its own calls."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8742, timeout: float = 600.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            encoded = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if encoded else {}
            connection.request(method, path, body=encoded, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                payload = json.loads(raw.decode() or "null")
            except ValueError:
                payload = {"error": raw.decode(errors="replace")}
            if response.status >= 400:
                message = (
                    payload.get("error", "")
                    if isinstance(payload, dict)
                    else str(payload)
                )
                raise ServiceError(response.status, message)
            if not isinstance(payload, dict):
                raise ServiceError(response.status, f"non-object body: {payload!r}")
            payload["_status"] = response.status
            return payload
        finally:
            connection.close()

    # -- routes ----------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def submit(
        self,
        grid: Any,
        scale: str = "quick",
        objective: str = "min_tpi",
        tenant: str = "public",
        wait: bool = False,
        max_area_cm2: "float | None" = None,
        max_power_w: "float | None" = None,
    ) -> Dict[str, Any]:
        """POST one sweep query; with ``wait`` the result rides back inline.

        ``objective`` accepts any server-side spelling (``tpi`` /
        ``min_tpi`` / ``epi`` / ``edp`` / ``frontier`` / ``pareto``);
        budgets constrain the answer's eligible set server-side.
        """
        body: Dict[str, Any] = {
            "grid": grid,
            "scale": scale,
            "objective": objective,
            "tenant": tenant,
            "wait": wait,
        }
        if max_area_cm2 is not None:
            body["max_area_cm2"] = max_area_cm2
        if max_power_w is not None:
            body["max_power_w"] = max_power_w
        return self._request("POST", "/v1/sweeps", body=body)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def events(self, job_id: str, after: int = 0) -> Iterator[Dict[str, Any]]:
        """Stream a job's progress events (blocks until the job closes)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events?after={after}")
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read().decode(errors="replace")
                try:
                    message = json.loads(raw or "{}").get("error", raw)
                except ValueError:
                    message = raw
                raise ServiceError(response.status, message)
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            connection.close()
