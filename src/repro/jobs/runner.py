"""Durable sweep execution: shards, journaled checkpoints, resume.

:class:`JobRunner` wraps one :class:`~repro.core.optimizer.
DesignOptimizer` sweep in a crash-safe protocol:

1. the (order-preserving, deduplicated) config grid is split into
   deterministic shards of :data:`SHARD_SIZE` points;
2. each shard's lifecycle is journaled — ``shard_dispatched`` before
   execution, ``shard_completed`` (with the serialized
   :class:`~repro.core.optimizer.DesignPoint` values) or
   ``shard_failed`` after;
3. each shard is dispatched once: a shard that raises is journaled
   ``shard_failed`` and the sweep stops with a
   :class:`~repro.errors.ConfigurationError` naming the shard, its
   error and ``--resume``.  A worker pool that dies is no shard
   failure, since the executor's map finishes a dead pool's work in
   this process (:meth:`~repro.engine.executor.SweepExecutor.map`);
4. resume is the retry: :meth:`JobRunner.run` replays the journal,
   completed shards feed their points straight into the
   :class:`~repro.engine.store.ArtifactStore`, and only unfinished
   shards (a failed one included) execute, numbered after the journal's
   earlier dispatches of them.

Because every shard's points land in the store under the same artifact
keys the serial path uses, the sweep's final assembly (an in-order
``evaluate`` pass, all store hits) is byte-identical to an
uninterrupted ``--jobs 1`` run, resumed or not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.config import (
    BranchScheme,
    LoadScheme,
    PenaltyMode,
    SystemConfig,
    config_to_params,
)
from repro.errors import ConfigurationError
from repro.jobs.faults import FaultInjector
from repro.jobs.journal import JOURNAL_VERSION, RunJournal, prepare_run_dir

__all__ = ["JobConfig", "JobRunner", "JobStats"]

#: Design points per journaled shard: the checkpoint granularity, and
#: part of every journal's identity (its header and grid digest).
SHARD_SIZE = 8


@dataclass
class JobStats:
    """Aggregate counters across every sweep of one durable run.

    ``shard_retries`` counts the shards dispatched again: the journal
    already held a dispatch of them (a failed or killed attempt).
    """

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
    """A durable run, attached to a measurement session.

    Args:
        run_dir: Directory holding the run marker and per-sweep journals.
        resume: Continue an existing run directory (required when the
            directory already holds a run).
        faults: Optional scripted fault injector (tests / CI only).
    """

    run_dir: Path
    resume: bool = False
    faults: Optional[FaultInjector] = None
    stats: JobStats = field(default_factory=JobStats)

    def __post_init__(self) -> None:
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
        epi_nj=record["epi_nj"],
        area_cm2=record["area_cm2"],
    )


def grid_digest(configs: Sequence[SystemConfig], extra: Sequence[Any] = ()) -> str:
    """Stable identity of a shard plan: the grid, its order, the split."""
    payload = {
        "configs": [config_to_params(config) for config in configs],
        "shard_size": SHARD_SIZE,
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
        return [
            unique[i : i + SHARD_SIZE] for i in range(0, len(unique), SHARD_SIZE)
        ]

    def _journal_for(
        self, shards: List[List[SystemConfig]], digest: str
    ) -> RunJournal:
        from repro.core.optimizer import DESIGN_POINT_VERSION

        header = {
            "journal_version": JOURNAL_VERSION,
            "spec_digest": self.optimizer.measurement.spec().digest(),
            "tech_digest": self.optimizer._tech_digest,
            "grid_digest": digest,
            "shard_size": SHARD_SIZE,
            "shard_count": len(shards),
            "config_count": sum(len(shard) for shard in shards),
            "design_point_version": DESIGN_POINT_VERSION,
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
        replayed = 0
        for records in completed.values():
            for record in records:
                self.optimizer.store_point(point_from_record(record))
                replayed += 1
        if replayed:
            span.count("points_replayed", replayed)
            self.config.stats.points_replayed += replayed

    def _run_shard(
        self,
        journal: RunJournal,
        index: int,
        shard: List[SystemConfig],
        attempt: int,
        span: Any,
    ) -> None:
        """One shard through dispatch → execute → commit, once.

        ``attempt`` is the number of dispatches of this shard the
        journal already holds, so attempt numbering is global across
        resumes.  A shard that raises is journaled ``shard_failed`` and
        stops the run: its error would recur here, and resuming the run
        directory dispatches it again.
        """
        config = self.config
        faults = config.faults
        journal.append(
            "shard_dispatched", shard=index, attempt=attempt, configs=len(shard)
        )
        if attempt:
            config.stats.shard_retries += 1
            span.count("shard_retries")
        try:
            with self.tracer.span(
                "jobs.shard", shard=index, attempt=attempt
            ) as shard_span:
                if faults is not None:
                    faults.before_shard(index, attempt)
                points = self._execute_shard(shard, index, attempt)
                shard_span.count("points", len(points))
        except Exception as exc:  # noqa: BLE001 — journaled, then reported
            error = f"{type(exc).__name__}: {exc}"[:500]
            journal.append("shard_failed", shard=index, attempt=attempt, error=error)
            raise ConfigurationError(
                f"shard {index} failed on attempt {attempt}: {error}; the "
                f"journal keeps every committed shard, so resuming the run "
                f"(--resume, or re-submitting the query) dispatches shard "
                f"{index} again"
            ) from exc
        journal.append(
            "shard_completed",
            shard=index,
            attempt=attempt,
            points=[point_to_record(point) for point in points],
        )
        config.stats.points_executed += len(points)
        span.count("points_executed", len(points))
        if faults is not None:
            faults.after_commit(index)

    def _execute_shard(
        self,
        shard: List[SystemConfig],
        index: int,
        attempt: int,
    ) -> List[Any]:
        """Warm one shard's planes, then evaluate its points here.

        A scripted worker exit for this attempt is armed on the
        session's executor for the warm only: the first parallel map the
        warm makes loses the worker that runs its first item.
        """
        optimizer = self.optimizer
        executor = optimizer.measurement.executor
        faults = self.config.faults
        if faults is not None and faults.wants_worker_exit(index, attempt):
            executor.inject_worker_exit(0)
        try:
            optimizer._warm_miss_cubes(shard)
        finally:
            executor.inject_worker_exit(None)
        return [optimizer.evaluate(config) for config in shard]
