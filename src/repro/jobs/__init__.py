"""Durable, resumable sweep runs (:mod:`repro.jobs`).

A *run* is a sweep whose progress survives the process: the grid is
split into deterministic shards of eight points, and every shard's
outcome is journaled to an append-only checksummed JSONL file in a run
directory.  A shard that fails stops the run with its reason; resuming
the run directory is the one retry: it replays the journal so only
unfinished shards execute, the failed one included — with results
guaranteed identical to an uninterrupted serial sweep.

Entry points:

* :class:`~repro.jobs.runner.JobConfig` — one durable run (run
  directory, resume flag, optional fault script), attached to a
  measurement session via ``SuiteMeasurement.attach_jobs``;
* :class:`~repro.jobs.runner.JobRunner` — executes one sweep durably
  (``DesignOptimizer.sweep`` routes through it automatically when a
  job config is attached);
* :class:`~repro.jobs.journal.RunJournal` — the crash-safe journal;
* :mod:`repro.jobs.faults` — deterministic fault injection used by the
  tests and the CI kill-and-resume smoke job.
"""

from repro.jobs.faults import FaultInjector, InjectedCrash, InjectedFault
from repro.jobs.journal import RunJournal, prepare_run_dir
from repro.jobs.runner import JobConfig, JobRunner, JobStats

__all__ = [
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
    "JobConfig",
    "JobRunner",
    "JobStats",
    "RunJournal",
    "prepare_run_dir",
]
