"""The engine layer: caching, parallel execution, and session management.

This package is the substrate the measurement/experiment/optimizer
layers run on:

* :mod:`repro.engine.store` — a two-tier (memory LRU + disk)
  content-addressed :class:`~repro.engine.store.ArtifactStore` for every
  derived artifact of a session, with hit/miss/eviction accounting;
* :mod:`repro.engine.executor` — a
  :class:`~repro.engine.executor.SweepExecutor` that fans design-space
  sweeps and per-benchmark trace synthesis out across worker processes
  with deterministic result ordering; a forked worker inherits the
  primed session, a spawned one rebuilds it from its spec;
* :mod:`repro.engine.session` — explicit
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
