"""Machine-readable record of one experiment run.

A :class:`RunLedger` gathers everything observable about a run — the
host it ran on, the resolved scale and seed, the sweep executor's
backend and worker count, per-experiment wall times, an
:class:`~repro.engine.store.StoreStats` snapshot, and the tracer's span
forest — and serializes it as
``metrics.json`` under the :data:`LEDGER_SCHEMA` schema id.  The same
data renders as an ASCII summary through :mod:`repro.utils.tables`, so
``--profile`` output and the committed ``BENCH_*.json`` trajectory files
are two views of one record.

The ledger is an output-only artifact: nothing in the harness reads it
back during a run, so writing (or not writing) it can never perturb
``results/*.txt``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.kernels import kernel_backend
from repro.obs.tracer import Tracer, render_span_tree
from repro.utils.tables import render_table

__all__ = [
    "LEDGER_SCHEMA",
    "RunLedger",
    "host_facts",
    "peak_rss_mb",
]

#: Schema identifier embedded in every metrics.json.
LEDGER_SCHEMA = "repro.obs/run-ledger/v1"


def host_facts() -> Dict[str, Any]:
    """What a run measured on: usable cores, RAM, versions, kernel backend.

    The keys are the names the repo benchmark prints.  Usable cores are
    this process's CPU affinity, not the machine's core count, so a
    2-job figure from a 1-core container says so.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "usable_cores": cores,
        "ram_gb": round(ram / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_kernel": kernel_backend(),
    }


def peak_rss_mb() -> Dict[str, float]:
    """This process's peak resident set and its largest worker's, in MB.

    The process's own peak is its address space's high-water mark
    (``VmHWM``) where Linux reports it: the ``ru_maxrss`` of a process
    started by fork and exec also covers the memory its parent held when
    it forked, which would charge the parent's peak to a run measured in
    a fresh child.  The worker figure is the largest ``ru_maxrss`` of the
    children this process has waited for (its shut-down pools' workers),
    0 when there were none; a forked worker's peak includes the pages it
    inherited.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own_kb = int(line.split()[1])
    except OSError:
        pass
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {  # Linux reports KB
        "peak_rss_mb": own_kb / 1024.0,
        "worker_peak_rss_mb": workers_kb / 1024.0,
    }


class RunLedger:
    """Collects run metadata, per-experiment timings, and store counters."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.host_info: Dict[str, Any] = host_facts()
        self.run_info: Dict[str, Any] = {}
        self.executor_info: Dict[str, Any] = {}
        self.experiments: List[Dict[str, Any]] = []
        self.store_stats: Dict[str, Any] = {}
        self.jobs_info: Dict[str, Any] = {}
        self.physical_info: Dict[str, Any] = {}

    # -- recording -------------------------------------------------------------

    def set_run_info(self, **info: Any) -> None:
        """Merge run-level metadata (scale, seed, instruction budget...)."""
        self.run_info.update(info)

    def set_executor_info(
        self, backend: str, jobs: int, start_method: Optional[str] = None
    ) -> None:
        self.executor_info = {
            "backend": backend,
            "jobs": jobs,
            "start_method": start_method,
        }

    def record_experiment(self, name: str, wall_s: float) -> None:
        self.experiments.append({"name": name, "wall_s": wall_s})

    def set_jobs_info(self, **info: Any) -> None:
        """Merge durable-run metadata (run dir, shard/retry/resume counts).

        The ``jobs`` section is optional in the schema: it appears in
        the payload only when a run executed with :mod:`repro.jobs`
        attached, so ledgers from plain runs are unchanged.
        """
        self.jobs_info.update(info)

    def set_physical_info(self, **info: Any) -> None:
        """Merge energy/area metadata (objective, budgets, frontier size,
        the chosen point's EPI/area/power).

        Like ``jobs``, the ``physical`` section is optional: it appears
        only when a run scored the physical axes, so ledgers from plain
        TPI runs are unchanged.
        """
        self.physical_info.update(info)

    def snapshot_store(self, stats: Any) -> None:
        """Record an :class:`~repro.engine.store.StoreStats` snapshot.

        Uses the stats object's JSON-safe ``as_dict`` rendering when it
        has one (non-finite rates can never reach :meth:`write`, which
        serializes with ``allow_nan=False``); duck-typed stand-ins
        without it fall back to their plain attribute dict.
        """
        as_dict = getattr(stats, "as_dict", None)
        if callable(as_dict):
            self.store_stats = dict(as_dict())
            return
        self.store_stats = dict(vars(stats))
        self.store_stats["hit_rate"] = stats.hit_rate

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        total = sum(entry["wall_s"] for entry in self.experiments)
        run = dict(self.run_info)
        run.setdefault("wall_s", total)
        payload = {
            "schema": LEDGER_SCHEMA,
            "host": dict(self.host_info),
            "run": run,
            "executor": dict(self.executor_info),
            "experiments": list(self.experiments),
            "store": dict(self.store_stats),
            "spans": self.tracer.to_list() if self.tracer is not None else [],
        }
        if self.jobs_info:
            payload["jobs"] = dict(self.jobs_info)
        if self.physical_info:
            payload["physical"] = dict(self.physical_info)
        return payload

    def write(self, path: Path) -> Path:
        """Write ``metrics.json``; non-finite floats are never emitted."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"
        )
        return path

    # -- rendering -------------------------------------------------------------

    def render_summary(self) -> str:
        """ASCII summary: run and host, experiment walls, store counters."""
        sections: List[str] = []
        info = {**self.run_info, **{f"executor.{k}": v for k, v in self.executor_info.items()}}
        if info:
            info.update({f"host.{k}": v for k, v in self.host_info.items()})
            sections.append(
                render_table(
                    ["key", "value"],
                    [[key, _cell(value)] for key, value in sorted(info.items())],
                    title="run",
                )
            )
        if self.experiments:
            sections.append(
                render_table(
                    ["experiment", "wall (s)"],
                    [[e["name"], e["wall_s"]] for e in self.experiments],
                    title="experiments",
                )
            )
        if self.store_stats:
            sections.append(
                render_table(
                    ["counter", "value"],
                    [
                        [key, _cell(value)]
                        for key, value in sorted(self.store_stats.items())
                    ],
                    title="artifact store",
                )
            )
        if self.jobs_info:
            sections.append(
                render_table(
                    ["counter", "value"],
                    [
                        [key, _cell(value)]
                        for key, value in sorted(self.jobs_info.items())
                    ],
                    title="durable run",
                )
            )
        if self.physical_info:
            sections.append(
                render_table(
                    ["key", "value"],
                    [
                        [key, _cell(value)]
                        for key, value in sorted(self.physical_info.items())
                    ],
                    title="physical (energy / area)",
                )
            )
        if self.tracer is not None and self.tracer.roots:
            sections.append("spans\n" + render_span_tree(self.tracer.roots))
        return "\n\n".join(sections)


def _cell(value: Any) -> Any:
    """Table cell coercion: render_table accepts str/int/float/None only."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    return str(value)
