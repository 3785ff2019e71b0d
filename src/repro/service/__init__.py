"""Design-space optimization as a service.

The paper's sweeps — "evaluate this grid of cache/pipeline designs and
report the TPI-optimal point" — packaged behind a small asyncio
HTTP/JSON API, so many clients (CI jobs, notebooks, other tenants) share
one warm simulator, one artifact store, and each other's finished
answers.

Layering, bottom up:

* :mod:`repro.service.protocol` — query parsing and canonicalization;
  the digest contract that makes memoisation sound (it names the
  generator and lowering versions, so a memoised answer is never one an
  older generator computed).
* :mod:`repro.service.events` — per-job progress buffers, which the
  events route polls, and the tracer bridge that feeds them.
* :mod:`repro.service.scheduler` — fair round-robin queueing across
  tenants, in-flight coalescing, memoisation against the artifact
  store, execution through the durable-jobs layer (a query whose shard
  failed, or whose server died, resumes its journal when re-submitted).
* :mod:`repro.service.http` — the five HTTP routes, including the
  chunked NDJSON event stream.
* :mod:`repro.service.client` — the blocking stdlib client the bench
  and tests use.

Run a server with ``python -m repro.experiments.runner serve`` (or
``python -m repro.service``).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.events import JobEventBus, SpanPublishingTracer
from repro.service.http import SweepService
from repro.service.protocol import (
    OBJECTIVES,
    SERVICE_SWEEP_VERSION,
    SweepQuery,
    parse_query,
)
from repro.service.scheduler import SweepJob, SweepScheduler

__all__ = [
    "OBJECTIVES",
    "SERVICE_SWEEP_VERSION",
    "JobEventBus",
    "ServiceClient",
    "ServiceError",
    "SpanPublishingTracer",
    "SweepJob",
    "SweepQuery",
    "SweepScheduler",
    "SweepService",
    "parse_query",
]
