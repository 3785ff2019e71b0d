"""CLI: raw trace pipeline throughput — eager vs. streaming/mmap.

Usage::

    python -m repro.experiments.bench_trace                    # 400K/4M/40M
    python -m repro.experiments.bench_trace --budgets 400000
    python -m repro.experiments.bench_trace --out BENCH.json

Times the two ends of the trace pipeline at several instruction budgets
on one synthesized Table 1 benchmark:

* **eager** — the pre-streaming path: the block-at-a-time reference
  loop (:meth:`~repro.trace.executor.TraceExecutor.run_reference`)
  materializes the whole trace in memory, which is then compressed into
  a ``.npz`` entry and eagerly decompressed back — synthesize, persist,
  reload, exactly what a cold measurement session used to do;
* **streaming** — the production path after the streaming rework:
  :meth:`~repro.trace.executor.TraceExecutor.iter_chunks` walks
  superblock chains and appends fixed-size chunks straight to a raw
  ``.npy`` :class:`~repro.trace.io.StreamingBundleWriter` (peak memory
  O(chunk)), and the finished bundle is reopened as a zero-copy memory
  map.

Both paths are asserted bit-identical — same block ids, taken flags,
and restart count — *before* any timing is reported, so the benchmark
doubles as an end-to-end equivalence check of the streaming rework.
Timings are best-of-``--repeats`` full pipelines (synthesize + persist
+ load); instructions/second divides the instruction budget by that
wall time.  The ``BENCH_pr7.json`` committed at the repo root is one
run of this tool.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import kernel_backend
from repro.obs import RunLedger
from repro.trace.compiled import CompiledProgram
from repro.trace.executor import TraceExecutor
from repro.trace.io import StreamingBundleWriter, load_arrays, save_arrays
from repro.utils.rng import DEFAULT_SEED
from repro.workload import benchmark_by_name, synthesize_program

__all__ = ["main", "run_benchmark", "DEFAULT_BUDGETS"]

#: The paper's quick scale, and two decades up toward its 2.4G traces.
DEFAULT_BUDGETS: Tuple[int, ...] = (400_000, 4_000_000, 40_000_000)

_Bundle = Dict[str, np.ndarray]


def _eager_pipeline(
    compiled: CompiledProgram, budget: int, seed: int, cache_dir: Path
) -> _Bundle:
    """The pre-streaming pipeline: whole-trace loop + compressed npz."""
    trace = TraceExecutor(compiled, seed=seed).run_reference(budget)
    save_arrays(
        "bench-eager",
        {
            "block_ids": trace.block_ids,
            "went_taken": trace.went_taken,
            "restarts": np.array([trace.restarts]),
        },
        cache_dir=cache_dir,
        layout="npz",
    )
    loaded = load_arrays("bench-eager", cache_dir=cache_dir, mmap=False)
    assert loaded is not None
    return loaded


def _streaming_pipeline(
    compiled: CompiledProgram, budget: int, seed: int, cache_dir: Path
) -> _Bundle:
    """The production pipeline: chunked walk + raw npy bundle + mmap."""
    executor = TraceExecutor(compiled, seed=seed)
    writer = StreamingBundleWriter("bench-stream", cache_dir=cache_dir)
    try:
        restarts = 0
        for chunk in executor.iter_chunks(budget):
            writer.append("block_ids", chunk.block_ids)
            writer.append("went_taken", chunk.went_taken)
            restarts = chunk.restarts
        writer.append("restarts", np.array([restarts]))
        writer.finalize()
    except BaseException:
        writer.abort()
        raise
    loaded = load_arrays("bench-stream", cache_dir=cache_dir)
    assert loaded is not None
    return loaded


def _check_identical(label: str, eager: _Bundle, streaming: _Bundle) -> None:
    for name in ("block_ids", "went_taken", "restarts"):
        if not np.array_equal(eager[name], streaming[name]):
            raise ConfigurationError(
                f"streaming pipeline diverged from the eager path at "
                f"{label} on {name!r} — timing would be meaningless"
            )


def _best_of(repeats: int, func: Callable[[], _Bundle]) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        bundle = func()
        # Touch the loaded arrays so lazily-faulted mmap pages are paid
        # for inside the timed region, keeping the comparison honest.
        for array in bundle.values():
            if len(array):
                _ = int(array[0]) + int(array[-1])
        best = min(best, time.perf_counter() - started)
    return best


def run_benchmark(
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    repeats: int = 2,
    bench: str = "gcc",
    seed: int = DEFAULT_SEED,
    stream=sys.stdout,
) -> RunLedger:
    """Time the eager vs. streaming trace pipelines at several budgets.

    Raises :class:`~repro.errors.ConfigurationError` if the two paths
    ever disagree on the trace contents.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be at least 1, got {repeats}")
    if not budgets or any(b <= 0 for b in budgets):
        raise ConfigurationError(f"budgets must be positive: {budgets!r}")
    spec = benchmark_by_name(bench)
    compiled = CompiledProgram(synthesize_program(spec, seed=seed))
    ledger = RunLedger()
    total_eager = 0.0
    total_streaming = 0.0
    last_speedup = 0.0
    with tempfile.TemporaryDirectory(prefix="bench-trace-") as tmp:
        cache_dir = Path(tmp)
        for budget in budgets:
            eager = _eager_pipeline(compiled, budget, seed, cache_dir)
            streaming = _streaming_pipeline(compiled, budget, seed, cache_dir)
            _check_identical(f"budget={budget}", eager, streaming)
            del eager, streaming
            eager_s = _best_of(
                repeats,
                lambda: _eager_pipeline(compiled, budget, seed, cache_dir),
            )
            streaming_s = _best_of(
                repeats,
                lambda: _streaming_pipeline(compiled, budget, seed, cache_dir),
            )
            eager_ips = budget / eager_s
            streaming_ips = budget / streaming_s
            last_speedup = eager_s / streaming_s
            total_eager += eager_s
            total_streaming += streaming_s
            ledger.record_experiment(f"eager:{budget}", eager_s)
            ledger.record_experiment(f"streaming:{budget}", streaming_s)
            ledger.set_run_info(
                **{
                    f"eager_ips_{budget}": eager_ips,
                    f"streaming_ips_{budget}": streaming_ips,
                    f"speedup_{budget}": last_speedup,
                }
            )
            print(
                f"[budget={budget:>11,}] eager={eager_s:.3f}s "
                f"({eager_ips / 1e6:.2f} M instr/s) "
                f"streaming={streaming_s:.3f}s "
                f"({streaming_ips / 1e6:.2f} M instr/s) "
                f"{last_speedup:.2f}x",
                file=stream,
            )
    ledger.set_run_info(
        benchmark="trace-pipeline",
        bench=bench,
        seed=seed,
        budgets=",".join(str(b) for b in budgets),
        repeats=repeats,
        kernel_backend=kernel_backend(),
        eager_wall_s=total_eager,
        streaming_wall_s=total_streaming,
        speedup=last_speedup,
        wall_s=total_eager + total_streaming,
    )
    print(
        f"total: eager={total_eager:.3f}s streaming={total_streaming:.3f}s "
        f"largest-scale speedup={last_speedup:.2f}x",
        file=stream,
    )
    return ledger


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the eager vs. streaming/mmap trace pipelines."
    )
    parser.add_argument(
        "--budgets",
        default=",".join(str(b) for b in DEFAULT_BUDGETS),
        metavar="N[,N...]",
        help="comma-separated instruction budgets "
        f"(default: {','.join(str(b) for b in DEFAULT_BUDGETS)})",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        metavar="N",
        help="timing repeats per path; best-of-N is reported (default: 2)",
    )
    parser.add_argument(
        "--bench",
        default="gcc",
        metavar="NAME",
        help="Table 1 benchmark to synthesize (default: gcc)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="synthesis seed"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run ledger (JSON + ASCII twin) here",
    )
    args = parser.parse_args(argv)
    try:
        budgets = tuple(int(part) for part in args.budgets.split(",") if part)
    except ValueError:
        parser.error(f"--budgets must be comma-separated ints: {args.budgets!r}")
    try:
        ledger = run_benchmark(
            budgets=budgets,
            repeats=args.repeats,
            bench=args.bench,
            seed=args.seed,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        ledger.write(args.out)
        args.out.with_suffix(".txt").write_text(ledger.render_summary() + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
