"""Deterministic fault injection for durable runs.

The injector exists to *prove* the jobs layer's crash-safety story:
tests (and the CI kill-and-resume smoke job) run a real sweep with a
scripted fault, then show that a resumed run completes and produces
byte-identical results.  Faults are fully deterministic — each is an
explicit ``kind:shard[:attempt]`` trigger, so the same spec always
fails the same shard at the same point.

Kinds:

* ``task-error:S[:A]`` — raise a transient :class:`InjectedFault`
  inside shard ``S`` on attempt ``A`` (default 0); exercises the
  runner's retry/backoff path.  The fault is *transient*: it fires only
  on the named attempt, so the retry succeeds.
* ``worker-exit:S[:A]`` — on shard ``S``'s attempt ``A`` (default 0),
  the worker running the first task of the first parallel map the
  shard's plane warm makes hard-exits once (:meth:`~repro.engine.
  executor.SweepExecutor.inject_worker_exit`): a cube build, or the
  trace prefetch on a session whose benchmarks are not built yet.
  Exercises the executor's broken-pool chunk retry underneath a durable
  run.  A no-op on a serial executor, or when the shard's planes are
  already built.
* ``abort:S`` — raise :class:`InjectedCrash` immediately after shard
  ``S``'s journal commit, simulating the *parent* process dying
  mid-run; the run directory is then resumable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
]

_KINDS = ("task-error", "worker-exit", "abort")


class InjectedFault(ReproError):
    """A scripted *transient* failure (the runner retries these)."""


class InjectedCrash(ReproError):
    """A scripted hard crash (the runner never retries these)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: what, where, when."""

    kind: str
    shard: int
    attempt: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = text.split(":")
        if len(parts) not in (2, 3) or parts[0] not in _KINDS:
            raise ConfigurationError(
                f"bad fault spec {text!r}; expected kind:shard[:attempt] "
                f"with kind in {_KINDS}"
            )
        try:
            shard = int(parts[1])
            attempt = int(parts[2]) if len(parts) == 3 else 0
        except ValueError:
            raise ConfigurationError(
                f"bad fault spec {text!r}: shard and attempt must be integers"
            ) from None
        return cls(kind=parts[0], shard=shard, attempt=attempt)


class FaultInjector:
    """Fires scripted faults at the JobRunner's injection points."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = list(specs)

    @classmethod
    def parse(cls, texts: Sequence[str]) -> "FaultInjector":
        return cls([FaultSpec.parse(text) for text in texts])

    def _match(self, kind: str, shard: int, attempt: Optional[int] = None):
        for spec in self.specs:
            if spec.kind != kind or spec.shard != shard:
                continue
            if attempt is None or spec.attempt == attempt:
                return spec
        return None

    def before_shard(self, shard: int, attempt: int) -> None:
        """Raise a transient fault if one is scripted for this attempt."""
        if self._match("task-error", shard, attempt):
            raise InjectedFault(
                f"injected transient fault in shard {shard} attempt {attempt}"
            )

    def wants_worker_exit(self, shard: int, attempt: int) -> bool:
        """Whether a worker should die on this shard attempt."""
        return self._match("worker-exit", shard, attempt) is not None

    def after_commit(self, shard: int) -> None:
        """Simulate the parent dying right after a shard commit."""
        if self._match("abort", shard):
            raise InjectedCrash(
                f"injected crash after committing shard {shard} "
                f"(resume the run directory to continue)"
            )
