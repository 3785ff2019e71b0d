"""Explicit measurement-session management.

Two pieces:

* :class:`MeasurementSpec` — a session's identity: the small
  description whose :meth:`~MeasurementSpec.digest` keys the store
  artifacts and journals that depend on the whole session;
* :class:`SessionRegistry` — a per-instance replacement for the old
  module-global session dict in ``repro.experiments.common``.  The CLI
  and long-lived callers share one default registry; tests construct
  isolated registries (or inject prebuilt sessions) without touching
  process-global state.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.engine.executor import SweepExecutor
from repro.errors import ConfigurationError

__all__ = [
    "EXPERIMENT_SCALES",
    "MeasurementSpec",
    "SessionRegistry",
    "DEFAULT_REGISTRY",
]

#: Total canonical instructions per scale.  ``quick`` is for smoke runs
#: and CI; ``full`` is the default experiment scale (a cold ``--scale
#: full --extensions --jobs 2`` run of every experiment took 7.5-8.1 s on
#: a 2-vCPU host; its traces are cached on disk afterwards).
EXPERIMENT_SCALES: Dict[str, int] = {
    "quick": 400_000,
    "full": 1_600_000,
}


@dataclass(frozen=True)
class MeasurementSpec:
    """What a measurement session is: its suite, budget, seed and quanta.

    The benchmark specs themselves are carried (they are plain dataclass
    values), so custom suites have identities of their own, not just the
    Table 1 names.  Where a session is cached, and how many workers it
    runs, are not part of what it is.
    """

    specs: Tuple[Any, ...]
    total_instructions: int
    seed: int
    quantum_instructions: int
    min_benchmark_instructions: int

    def digest(self) -> str:
        """Stable identity of the session this spec describes."""
        return hashlib.sha256(repr(self).encode()).hexdigest()[:24]


class SessionRegistry:
    """Named measurement sessions, one per experiment scale.

    Args:
        scales: scale name -> total canonical instructions (default: the
            standard ``quick``/``full`` table).
    """

    def __init__(self, scales: Optional[Dict[str, int]] = None) -> None:
        self.scales: Dict[str, int] = dict(
            scales if scales is not None else EXPERIMENT_SCALES
        )
        self._sessions: Dict[str, Any] = {}

    def resolve_scale(self, scale: Optional[str] = None) -> str:
        """Validate a scale name, defaulting to ``REPRO_SCALE`` then 'full'."""
        if scale is None:
            scale = os.environ.get("REPRO_SCALE", "full")
        if scale not in self.scales:
            raise ConfigurationError(
                f"unknown scale {scale!r}; choose from {sorted(self.scales)}"
            )
        return scale

    def get(self, scale: Optional[str] = None, jobs: Optional[int] = None) -> Any:
        """The session for a scale, built on first use (memoized).

        ``jobs`` sizes the session's worker pool, which runs its trace
        prefetch and its cube builds; passing a new width to an existing
        session resizes its pool (:meth:`~repro.core.measurement.
        SuiteMeasurement.attach_cube_jobs` reaps the old pool's workers
        first), so a CLI flag applies even when the session was built
        earlier.  Counts are bit-identical at any width.
        """
        scale = self.resolve_scale(scale)
        session = self._sessions.get(scale)
        if session is None:
            from repro.core.measurement import SuiteMeasurement

            session = SuiteMeasurement(
                total_instructions=self.scales[scale],
                executor=SweepExecutor(jobs=jobs if jobs is not None else 1),
            )
            self._sessions[scale] = session
        elif jobs is not None and session.executor.jobs != jobs:
            session.attach_cube_jobs(jobs)
        return session

    def set(self, scale: str, session: Any) -> None:
        """Inject a prebuilt session (tests; custom suites).

        A session previously registered under the scale has its worker
        pool retired, its workers reaped.
        """
        previous = self._sessions.get(scale)
        if previous is not None and previous is not session:
            previous.executor.retire_pool(wait=True)
        self._sessions[scale] = session

    def __contains__(self, scale: str) -> bool:
        return scale in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)


#: The registry the CLI uses by default.  Library code takes a
#: ``registry`` argument instead of reaching for this directly.
DEFAULT_REGISTRY = SessionRegistry()
