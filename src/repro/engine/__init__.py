"""The engine layer: caching, parallel execution, and session management.

This package is the substrate the measurement/experiment/optimizer
layers run on:

* :mod:`repro.engine.store` — a two-tier (memory LRU + disk)
  content-addressed :class:`~repro.engine.store.ArtifactStore` for every
  derived artifact of a session, with hit/miss/eviction accounting;
* :mod:`repro.engine.executor` — a
  :class:`~repro.engine.executor.SweepExecutor`, a session's one worker
  pool, that fans per-benchmark trace synthesis and miss-cube build
  tasks out across worker processes with deterministic result ordering;
* :mod:`repro.engine.session` — a session's identity
  (:class:`~repro.engine.session.MeasurementSpec`) and explicit
  :class:`~repro.engine.session.SessionRegistry` construction of shared
  measurement sessions, replacing module-global state.
"""

from repro.engine.store import ArtifactKey, ArtifactStore, StoreStats
from repro.engine.executor import SweepExecutor
from repro.engine.session import (
    DEFAULT_REGISTRY,
    EXPERIMENT_SCALES,
    MeasurementSpec,
    SessionRegistry,
)

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "StoreStats",
    "SweepExecutor",
    "MeasurementSpec",
    "SessionRegistry",
    "DEFAULT_REGISTRY",
    "EXPERIMENT_SCALES",
]
