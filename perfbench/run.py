#!/usr/bin/env python3
"""The repo benchmark: one command, two workloads, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cube-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload service-mixed --seed 7 --seconds 10 --trace 1

Workloads (rationale and mix also in ``BENCHMARK.json``):

* ``cube-warm``     1M-instruction session, traces pre-filled; I/D miss
                    cubes on the set-partitioned engine, then ``select()``
                    over the asymmetric grid under both branch schemes;
* ``service-mixed`` in-process sweep service, one closed-loop client,
                    seeded rounds of memo-hit repeats and novel grids.

Each measured run is a fresh child process (``workloads.py``) with its own
cache directory under ``.perfbench-work/`` in the checkout, so neither a
previous run's artifacts nor its peak RSS leak into this one.  The
``cube-warm`` traces are synthesized once per checkout and source tree,
untimed, and copied into each run's cache.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``         process start until the session is ready (programs
                      synthesized and compiled, traces walked or loaded;
                      for the service also listening, warm and memoised);
* ``run_s``           the timed work after set-up; for the service, the
                      number of rounds times the median round;
* ``peak_rss_mb``     peak RSS of the run process plus its largest worker;
* ``latency_p50_ms``  median operation latency;
* ``latency_tail_ms`` the highest percentile with at least ten samples
                      beyond it (the maximum when there are fewer than 11).

Times are in nominal-host seconds: the sandbox's CPU speed drifts by tens
of percent within a run, so wall time is rescaled by a reference loop
sampled throughout the run (``workloads.HostSpeed``); the raw wall times
are printed on the ``details`` line.  A service request's latency is
the process CPU time it took, rescaled the same way, so time the shared
host takes the CPUs away is not counted; nor are the request's own I/O
waits (its wall latencies are on ``details``).  An operation is one service
request; ``cube-warm``'s one operation is its whole pass, so there its
latencies equal ``run_s``.  ``--trace 1`` runs the workload twice,
traced and untraced, and prints the per-layer metrics of ``layers.py``
plus ``tracing_overhead_s`` (traced minus untraced ``run_s``).  Both
modes check every output; a mismatch is a failed operation, and the
error rate, instruction and request throughput and host facts are
printed on the lines before the result.

The seed drives the service's request sequence, and ``--seconds`` its
length (60 requests per second, in rounds of 30, about
``--seconds`` of serving at this revision); ``cube-warm`` runs the
paper's fixed suite as one fixed pass and ignores both.  Seed 1992 is
held out from tuning for later claims.  ``--record-golden`` rewrites ``cube-warm``'s golden
digests from one run instead of checking them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from layers import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("cube-warm", "service-mixed")
#: Every run, traced runs included, must end well inside three minutes.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def tail_latency(samples: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n}
    return {
        "value": ordered[n - 11],
        "percentile": 100.0 * (n - 10) / n,
        "samples": n,
    }


def source_digest() -> str:
    """Content digest of the program's sources (keys the trace prefill)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def _run_child(args: List[str], env: Dict[str, str], deadline: float) -> None:
    """Run one child to completion (or kill its whole process group)."""
    process = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"child {args[1:3]} exceeded the run deadline")
    if process.returncode != 0:
        raise RuntimeError(
            f"child {args[1:3]} exited {process.returncode}:\n{err[-4000:]}{out[-1000:]}"
        )


def _child_env(run_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(run_dir / "tmp")
    return env


def prefilled_traces(deadline: float) -> Path:
    """The cube-warm trace cache for this source tree, built once, untimed."""
    target = WORK / f"prefill-{source_digest()}"
    if target.is_dir():
        return target
    for stale in WORK.glob("prefill-*"):
        shutil.rmtree(stale, ignore_errors=True)
    building = Path(tempfile.mkdtemp(dir=WORK, prefix="building-"))
    try:
        _run_child(
            [str(HERE / "workloads.py"), "--prefill", "--cache-dir", str(building / "cache")],
            _child_env(building), deadline,
        )
        os.rename(building / "cache", target)
    finally:
        shutil.rmtree(building, ignore_errors=True)
    return target


def measured_run(
    workload: str, seed: int, seconds: int, trace: bool, deadline: float
) -> Dict[str, Any]:
    """One fresh child process over a fresh cache directory."""
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{workload}-"))
    try:
        cache = run_dir / "cache"
        if workload == "cube-warm":
            shutil.copytree(prefilled_traces(deadline), cache)
        else:
            cache.mkdir()
        out = run_dir / "result.json"
        env = _child_env(run_dir)
        _run_child(
            [
                str(HERE / "workloads.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)), "--cache-dir", str(cache),
                "--out", str(out), "--spawned-at", repr(time.time()),
            ],
            env, deadline,
        )
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    return {
        "setup_s": result["setup_s"],
        "run_s": result["run_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "latency_p50_ms": statistics.median(result["latencies_ms"]),
        "latency_tail_ms": tail_latency(result["latencies_ms"])["value"],
    }


def record_golden(result: Dict[str, Any]) -> None:
    golden = {result["golden_key"]: result["digests"]}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.record_golden and args.workload != "cube-warm":
        parser.error("only cube-warm is checked against golden digests")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    try:
        result = measured_run(args.workload, args.seed, args.seconds, False, deadline)
        traced = (
            measured_run(args.workload, args.seed, args.seconds, True, deadline)
            if args.trace
            else None
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record_golden:
        record_golden(result)

    runs = [result] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("host " + json.dumps(result["host"], sort_keys=True))
    details = dict(result["details"])
    details["error_rate"] = failed / attempted
    details["latency_tail"] = tail_latency(result["latencies_ms"])
    print("details " + json.dumps(details, sort_keys=True))
    for run in runs:
        for failure in run["failures"]:
            print(f"FAILED: {failure}")
    if traced is None:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end(result).items()
        }
    else:
        values = dict(traced["layers"])
        values["tracing_overhead_s"] = traced["run_s"] - result["run_s"]
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
