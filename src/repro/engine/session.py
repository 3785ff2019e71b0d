"""Explicit measurement-session management.

Two pieces:

* :class:`MeasurementSpec` — a small picklable description of a
  :class:`~repro.core.measurement.SuiteMeasurement` from which the
  session can be rebuilt anywhere (most importantly inside spawned sweep
  workers, which map the session's traces back from its disk tier
  instead of re-synthesizing them);
* :class:`SessionRegistry` — a per-instance replacement for the old
  module-global session dict in ``repro.experiments.common``.  The CLI
  and long-lived callers share one default registry; tests construct
  isolated registries (or inject prebuilt sessions) without touching
  process-global state.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.engine.executor import SweepExecutor, retire_inherited
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError

__all__ = [
    "EXPERIMENT_SCALES",
    "MeasurementSpec",
    "SessionRegistry",
    "DEFAULT_REGISTRY",
]

#: Total canonical instructions per scale.  ``quick`` is for smoke runs
#: and CI; ``full`` is the default experiment scale (about a minute of
#: trace generation, cached on disk afterwards).
EXPERIMENT_SCALES: Dict[str, int] = {
    "quick": 400_000,
    "full": 1_600_000,
}


@dataclass(frozen=True)
class MeasurementSpec:
    """Everything needed to rebuild a measurement session elsewhere.

    The benchmark specs themselves are carried (they are plain dataclass
    values), so custom suites round-trip, not just the Table 1 names.
    The rebuilt session always uses a serial executor — workers must
    never spawn nested pools.
    """

    specs: Tuple[Any, ...]
    total_instructions: int
    seed: int
    quantum_instructions: int
    min_benchmark_instructions: int
    #: The session store's disk-tier directory.  Where a session is
    #: cached is not part of what it is, so it stays out of the repr and
    #: so out of :meth:`digest`.
    cache_dir: Path = field(repr=False, compare=False)

    def digest(self) -> str:
        """Stable identity of the session this spec describes."""
        return hashlib.sha256(repr(self).encode()).hexdigest()[:24]

    def build(self) -> Any:
        """Construct the session over the same disk tier, so its traces
        and compiled programs map back instead of being re-synthesized."""
        from repro.core.measurement import SuiteMeasurement

        return SuiteMeasurement(
            specs=list(self.specs),
            total_instructions=self.total_instructions,
            seed=self.seed,
            quantum_instructions=self.quantum_instructions,
            min_benchmark_instructions=self.min_benchmark_instructions,
            store=ArtifactStore(cache_dir=self.cache_dir),
            executor=SweepExecutor(jobs=1),
        )


def _retire_session(session: Any) -> None:
    """Retire a replaced session's fork-inheritable state and build pool.

    Sessions are duck-typed here (tests inject stand-ins), so anything
    without a ``spec()`` is simply not primeable and needs no cleanup,
    and anything without ``retire_cube_pool()`` has no build pool.
    """
    spec = getattr(session, "spec", None)
    if callable(spec):
        retire_inherited(spec().digest())
    retire_cube_pool = getattr(session, "retire_cube_pool", None)
    if callable(retire_cube_pool):
        retire_cube_pool()


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

    def get(
        self,
        scale: Optional[str] = None,
        jobs: Optional[int] = None,
        cube_jobs: Optional[int] = None,
    ) -> Any:
        """The session for a scale, built on first use (memoized).

        ``jobs`` configures the session's sweep executor; passing a new
        value to an existing session swaps its executor in place so a CLI
        flag applies even when the session was built earlier.
        ``cube_jobs`` sizes the miss-cube builds' worker pool the same
        way (1 runs them in this process; counts are bit-identical
        either way).
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
            session.executor.shutdown()
            session.executor = SweepExecutor(jobs=jobs)
        if cube_jobs is not None:
            session.attach_cube_jobs(cube_jobs)
        return session

    def set(self, scale: str, session: Any) -> None:
        """Inject a prebuilt session (tests; custom suites).

        A session previously registered under the scale is retired from
        the executor's fork-inheritance table so replaced sessions never
        linger as warm copies for future worker forks, and its build
        pool's workers are reaped.
        """
        previous = self._sessions.get(scale)
        if previous is not None and previous is not session:
            _retire_session(previous)
        self._sessions[scale] = session

    def discard(self, scale: str) -> None:
        """Forget one scale's session, if present (retiring primed state)."""
        session = self._sessions.pop(scale, None)
        if session is not None:
            _retire_session(session)

    def clear(self) -> None:
        """Forget every session (retiring their primed state)."""
        for session in self._sessions.values():
            _retire_session(session)
        self._sessions.clear()

    def __contains__(self, scale: str) -> bool:
        return scale in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)


#: The registry the CLI and ``repro.experiments.common.get_measurement``
#: share by default.  Library code takes a ``registry`` argument instead
#: of reaching for this directly.
DEFAULT_REGISTRY = SessionRegistry()
