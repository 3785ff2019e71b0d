"""Durable sweep execution: shards, retries, journaled checkpoints.

:class:`JobRunner` wraps one :class:`~repro.core.optimizer.
DesignOptimizer` sweep in a crash-safe protocol:

1. the (order-preserving, deduplicated) config grid is split into
   deterministic shards of ``shard_size`` points;
2. each shard's lifecycle is journaled — ``shard_dispatched`` before
   execution, ``shard_completed`` (with the serialized
   :class:`~repro.core.optimizer.DesignPoint` values) or
   ``shard_failed`` after;
3. a failed shard is retried up to ``max_retries`` times with capped
   exponential backoff whose jitter is *seeded* (the same run always
   waits the same spans); a worker pool that dies is no shard failure,
   since the executor's map finishes a dead pool's work in this process
   (:meth:`~repro.engine.executor.SweepExecutor.map`);
4. on restart, :meth:`JobRunner.run` replays the journal: completed
   shards feed their points straight into the
   :class:`~repro.engine.store.ArtifactStore` and only unfinished
   shards execute.

Because every shard's points land in the store under the same artifact
keys the serial path uses, the sweep's final assembly (an in-order
``evaluate`` pass, all store hits) is byte-identical to an
uninterrupted ``--jobs 1`` run, resumed or not.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.config import (
    BranchScheme,
    LoadScheme,
    PenaltyMode,
    SystemConfig,
    config_to_params,
)
from repro.errors import ConfigurationError
from repro.jobs.faults import FaultInjector, InjectedCrash
from repro.jobs.journal import JOURNAL_VERSION, RunJournal, prepare_run_dir
from repro.utils.rng import DEFAULT_SEED, spawn_rng

__all__ = ["JobConfig", "JobRunner", "JobStats"]

#: Ceiling on one backoff sleep, seconds.
DEFAULT_BACKOFF_CAP_S = 2.0
#: First-retry backoff, seconds (doubles per attempt up to the cap).
DEFAULT_BACKOFF_BASE_S = 0.05


@dataclass
class JobStats:
    """Aggregate counters across every sweep of one durable run."""

    sweeps: int = 0
    sweeps_resumed: int = 0
    shards_total: int = 0
    shards_replayed: int = 0
    shards_executed: int = 0
    shard_retries: int = 0
    points_replayed: int = 0
    points_executed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class JobConfig:
    """Policy for durable runs, attached to a measurement session.

    Args:
        run_dir: Directory holding the run marker and per-sweep journals.
        resume: Continue an existing run directory (required when the
            directory already holds a run).
        max_retries: Extra attempts per shard after its first failure.
        shard_size: Design points per shard (the checkpoint granularity:
            smaller shards lose less work to a crash, larger shards
            journal less often).
        seed: Base seed for the deterministic backoff jitter.
        faults: Optional scripted fault injector (tests / CI only).
        sleep: Backoff sleep hook (tests inject a recorder).
    """

    run_dir: Path
    resume: bool = False
    max_retries: int = 2
    shard_size: int = 8
    seed: int = DEFAULT_SEED
    faults: Optional[FaultInjector] = None
    sleep: Callable[[float], None] = time.sleep
    stats: JobStats = field(default_factory=JobStats)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be at least 0, got {self.max_retries}"
            )
        if self.shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be at least 1, got {self.shard_size}"
            )
        self.run_dir = Path(self.run_dir)
        self._prepared = False

    def prepare(self) -> None:
        """Create/validate the run directory (idempotent per config)."""
        if not self._prepared:
            prepare_run_dir(self.run_dir, self.resume)
            self._prepared = True


# -- DesignPoint (de)serialization ----------------------------------------


def config_from_params(params: Dict[str, Any]) -> SystemConfig:
    """Rebuild a SystemConfig from its scalar-parameter rendering."""
    return SystemConfig(
        icache_kw=params["icache_kw"],
        dcache_kw=params["dcache_kw"],
        block_words=params["block_words"],
        branch_slots=params["branch_slots"],
        load_slots=params["load_slots"],
        penalty=params["penalty"],
        penalty_mode=PenaltyMode(params["penalty_mode"]),
        branch_scheme=BranchScheme(params["branch_scheme"]),
        load_scheme=LoadScheme(params["load_scheme"]),
    )


def point_to_record(point: Any) -> Dict[str, Any]:
    """One DesignPoint as a journal-record payload (exact float repr)."""
    return {
        "config": config_to_params(point.config),
        "cpi": point.cpi,
        "cycle_time_ns": point.cycle_time_ns,
        "epi_nj": point.epi_nj,
        "area_cm2": point.area_cm2,
    }


def point_from_record(record: Dict[str, Any]) -> Any:
    from repro.core.optimizer import DesignPoint

    return DesignPoint(
        config=config_from_params(record["config"]),
        cpi=record["cpi"],
        cycle_time_ns=record["cycle_time_ns"],
        epi_nj=record.get("epi_nj", 0.0),
        area_cm2=record.get("area_cm2", 0.0),
    )


def grid_digest(
    configs: Sequence[SystemConfig], shard_size: int, extra: Sequence[Any] = ()
) -> str:
    """Stable identity of a shard plan: the grid, its order, the split."""
    payload = {
        "configs": [config_to_params(config) for config in configs],
        "shard_size": shard_size,
        "extra": list(extra),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


class JobRunner:
    """Executes one optimizer sweep as a durable, resumable run."""

    def __init__(self, optimizer: Any, config: JobConfig) -> None:
        self.optimizer = optimizer
        self.config = config
        self.tracer = optimizer.tracer

    # -- plan ------------------------------------------------------------------

    def _shard_plan(self, configs: Sequence[SystemConfig]) -> List[List[SystemConfig]]:
        unique = list(dict.fromkeys(configs))
        size = self.config.shard_size
        return [unique[i : i + size] for i in range(0, len(unique), size)]

    def _journal_for(
        self, shards: List[List[SystemConfig]], digest: str
    ) -> RunJournal:
        from repro.core.optimizer import DESIGN_POINT_VERSION

        header = {
            "journal_version": JOURNAL_VERSION,
            "spec_digest": self.optimizer.measurement.spec().digest(),
            "tech_digest": self.optimizer._tech_digest,
            "grid_digest": digest,
            "shard_size": self.config.shard_size,
            "shard_count": len(shards),
            "config_count": sum(len(shard) for shard in shards),
            "design_point_version": DESIGN_POINT_VERSION,
            "max_retries": self.config.max_retries,
        }
        path = self.config.run_dir / "sweeps" / f"sweep-{digest}.jsonl"
        return RunJournal.open(path, header)

    # -- execution -------------------------------------------------------------

    def run(self, configs: Sequence[SystemConfig]) -> None:
        """Durably evaluate the grid; afterwards every point is a store hit."""
        from repro.core.optimizer import DESIGN_POINT_VERSION

        self.config.prepare()
        shards = self._shard_plan(configs)
        if not shards:
            return
        digest = grid_digest(
            [config for shard in shards for config in shard],
            self.config.shard_size,
            extra=[self.optimizer._tech_digest, DESIGN_POINT_VERSION],
        )
        journal = self._journal_for(shards, digest)
        completed, dispatched = journal.replay()
        stats = self.config.stats
        stats.sweeps += 1
        stats.shards_total += len(shards)
        with self.tracer.span(
            "jobs.run", sweep=digest, shards=len(shards)
        ) as span:
            if completed:
                stats.sweeps_resumed += 1
                span.count("shards_replayed", len(completed))
            self._replay_completed(completed, span)
            pending = [
                config
                for index, shard in enumerate(shards)
                if index not in completed
                for config in shard
            ]
            if pending and self.optimizer.executor.is_parallel:
                # Once, before the first shard forks the pool: workers
                # then inherit the cubes instead of building their own.
                self.optimizer._warm_and_prime(pending)
            for index, shard in enumerate(shards):
                if index in completed:
                    stats.shards_replayed += 1
                    continue
                self._run_shard(journal, index, shard, dispatched.get(index, 0), span)
                stats.shards_executed += 1
            if not journal.finished:
                journal.append("run_completed")

    def _replay_completed(
        self, completed: Dict[int, List[Dict[str, Any]]], span: Any
    ) -> None:
        store = self.optimizer.measurement.store
        replayed = 0
        for records in completed.values():
            for record in records:
                self._store_point(store, point_from_record(record))
                replayed += 1
        if replayed:
            span.count("points_replayed", replayed)
            self.config.stats.points_replayed += replayed

    def _store_point(self, store: Any, point: Any) -> None:
        from repro.core.optimizer import DESIGN_POINT_VERSION

        store.put(
            "design_point",
            DESIGN_POINT_VERSION,
            point,
            tech=self.optimizer._tech_digest,
            **config_to_params(point.config),
        )

    def _run_shard(
        self,
        journal: RunJournal,
        index: int,
        shard: List[SystemConfig],
        prior_attempts: int,
        span: Any,
    ) -> None:
        """One shard through dispatch → execute → commit, with retries.

        Attempt numbering is global across resumes (``prior_attempts``
        comes from the journal), but each invocation gets a fresh retry
        budget — a run killed by infrastructure should not inherit its
        predecessor's exhausted retries.
        """
        config = self.config
        faults = config.faults
        for local_try in range(config.max_retries + 1):
            attempt = prior_attempts + local_try
            last = local_try == config.max_retries
            journal.append(
                "shard_dispatched", shard=index, attempt=attempt, configs=len(shard)
            )
            try:
                with self.tracer.span(
                    "jobs.shard", shard=index, attempt=attempt
                ) as shard_span:
                    if faults is not None:
                        faults.before_shard(index, attempt)
                    points = self._execute_shard(shard, index, attempt)
                    shard_span.count("points", len(points))
            except InjectedCrash:
                raise
            except Exception as exc:  # noqa: BLE001 — every failure is retryable
                journal.append(
                    "shard_failed",
                    shard=index,
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}"[:500],
                )
                config.stats.shard_retries += 1
                span.count("shard_retries")
                if last:
                    raise ConfigurationError(
                        f"shard {index} failed on every attempt "
                        f"({attempt + 1} dispatches recorded): {exc}"
                    ) from exc
                config.sleep(self._backoff_s(journal, index, attempt))
                continue
            journal.append(
                "shard_completed",
                shard=index,
                attempt=attempt,
                points=[point_to_record(point) for point in points],
            )
            store = self.optimizer.measurement.store
            for point in points:
                self._store_point(store, point)
            config.stats.points_executed += len(points)
            span.count("points_executed", len(points))
            if faults is not None:
                faults.after_commit(index)
            return

    def _execute_shard(
        self,
        shard: List[SystemConfig],
        index: int,
        attempt: int,
    ) -> List[Any]:
        """Evaluate one shard's points (parallel when the executor is)."""
        optimizer = self.optimizer
        executor = optimizer.executor
        if executor.is_parallel and len(shard) >= 2:
            from repro.engine.executor import evaluate_design_point

            measurement = optimizer.measurement
            spec = measurement.spec()
            executor.prime(spec.digest(), measurement)
            faults = self.config.faults
            if faults is not None and faults.wants_worker_exit(index, attempt):
                executor.inject_worker_exit(0)
            return executor.map(
                evaluate_design_point,
                [(spec, optimizer.tech, optimizer.phys, config) for config in shard],
            )
        optimizer._warm_miss_cubes(shard)
        return [optimizer.evaluate(config) for config in shard]

    def _backoff_s(self, journal: RunJournal, shard: int, attempt: int) -> float:
        """Capped exponential backoff with seeded, deterministic jitter."""
        base = min(
            DEFAULT_BACKOFF_CAP_S, DEFAULT_BACKOFF_BASE_S * (2.0 ** attempt)
        )
        digest = journal.header["grid_digest"] if journal.header else ""
        rng = spawn_rng(self.config.seed, "jobs.backoff", digest, shard, attempt)
        return base * (0.5 + 0.5 * float(rng.random()))
