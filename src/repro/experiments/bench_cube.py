"""CLI: walk the paper-surface miss cube up an instruction-budget axis.

Usage::

    python -m repro.experiments.bench_cube --scales 400000,4000000
    python -m repro.experiments.bench_cube --scales paper --cube-jobs 2 \
        --out BENCH.json

For each budget this builds the session, writes the multiprogrammed
data addresses into one scratch file, and times the whole paper
block-size study surface — every paper block size (4/8/16 words) at
every capacity (1-32 KW) and way count (1/2/4/8) — through the
chunked out-of-core driver (:mod:`repro.cache.cubepart`), whose tasks
map that file in place.  It then builds the slots-0
instruction-side plane of the same block sizes through the session,
which writes it from the traces into one file per block size for the
driver without ever holding it whole.  Both sides are asserted
bit-identical to the serial engine wherever both run.  Each budget runs
in a fresh process that reports its own and its workers' peak RSS; the
rows land in a :class:`~repro.obs.RunLedger` (written with ``--out``).
``--scales`` is required, so a bare run never starts the
2.4G-instruction row.
"""

from __future__ import annotations

import argparse
import multiprocessing
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cache.cubepart import partitioned_miss_cube_from_addresses
from repro.cache.misscube import MissCube, miss_cube, miss_cube_from_addresses
from repro.engine.executor import SweepExecutor
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.experiments.ext_associativity import ASSOCIATIVITIES, CAPACITIES_KW
from repro.experiments.ext_blocksize import BLOCK_SIZES
from repro.obs import RunLedger
from repro.obs.ledger import peak_rss_mb
from repro.utils.units import kw_to_words

__all__ = ["main", "run_scale_benchmark"]

#: Instruction budgets of the scale axis (``--scales paper``): three
#: orders of magnitude up from quick scale to the paper's full
#: 2.4G-instruction traces.
DEFAULT_SCALE_AXIS = (
    400_000,
    4_000_000,
    40_000_000,
    400_000_000,
    2_400_000_000,
)

#: Largest budget at which the scale benchmark also runs the one-shot
#: serial engine and asserts the driver's cube bit-identical to it.
#: Past this the serial pass is skipped (that is the point of the
#: chunked driver) and the build carries its chunked A=1 cross-check
#: instead: one direct-mapped sweep per block size, run as tasks on the
#: same worker pool.
DEFAULT_SERIAL_LIMIT = 400_000_000


def _grid_set_counts(
    blocks: Sequence[int],
    capacities_kw: Sequence[float],
    ways: Sequence[int],
) -> Dict[int, List[int]]:
    return {
        B: sorted(
            {kw_to_words(kw) // B // way for kw in capacities_kw for way in ways}
        )
        for B in blocks
    }


def _cubes_identical(a: MissCube, b: MissCube) -> bool:
    if dict(a.references) != dict(b.references) or a.max_ways != b.max_ways:
        return False
    if set(a.hits) != set(b.hits):
        return False
    for B in a.hits:
        if set(a.hits[B]) != set(b.hits[B]):
            return False
        for S in a.hits[B]:
            if not np.array_equal(a.hits[B][S], b.hits[B][S]):
                return False
    return True


def _scale_row(
    total: int,
    repeats: int,
    cube_jobs: int,
    serial_limit: int,
    root: Path,
    specs,
) -> Dict[str, object]:
    """Measure one budget of the scale axis, in a process of its own.

    ``run_scale_benchmark`` runs this in a fresh spawned process per
    budget, so the peak RSS it reports (this process and its cube
    workers) is the row's own rather than the largest of every earlier
    row.  Returns raw (unrounded) measurements.
    """
    from repro.core.measurement import SuiteMeasurement

    blocks = tuple(BLOCK_SIZES)
    ways = tuple(ASSOCIATIVITIES)
    set_counts = _grid_set_counts(blocks, tuple(CAPACITIES_KW), ways)

    started = time.perf_counter()
    measurement = SuiteMeasurement(
        specs=specs,
        total_instructions=total,
        store=ArtifactStore(cache_dir=root),
    )
    measurement.benchmarks  # the session build: programs and their traces
    front_end_s = time.perf_counter() - started

    serial_s: Optional[float] = None
    serial_cube: Optional[MissCube] = None
    executor = SweepExecutor(jobs=cube_jobs)
    part_s = float("inf")
    started = time.perf_counter()
    with measurement.dstream_chunks() as addresses:
        stream_s = time.perf_counter() - started
        references = sum(addresses.lengths)
        if total <= serial_limit:
            whole = np.concatenate(list(addresses))
            serial_s = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                serial_cube = miss_cube_from_addresses(
                    whole, blocks, set_counts, max(ways)
                )
                serial_s = min(serial_s, time.perf_counter() - started)
            del whole  # not inherited by the driver's forked workers
        try:
            for _ in range(repeats):
                started = time.perf_counter()
                part_cube = partitioned_miss_cube_from_addresses(
                    addresses, blocks, set_counts, max(ways), executor=executor
                )
                part_s = min(part_s, time.perf_counter() - started)
        finally:
            executor.retire_pool(wait=True)

    # The slots-0 I plane, built through the session: its stream is
    # generated from the traces into the files the driver's tasks read.
    measurement.attach_cube_jobs(cube_jobs)
    started = time.perf_counter()
    icube = measurement.icache_miss_cube(0, blocks)
    i_build_s = time.perf_counter() - started
    measurement.executor.retire_pool(wait=True)  # reaped: the peak counts them

    identical: Optional[bool] = None
    if serial_cube is not None:
        with measurement.istream_chunks(0, blocks) as files:
            streams = {B: np.concatenate(list(f)) for B, f in files.items()}
        serial_icube = miss_cube(
            streams, {B: icube.set_counts(B) for B in blocks}, icube.max_ways
        )
        for side, serial, built in (
            ("D", serial_cube, part_cube),
            ("I", serial_icube, icube),
        ):
            if not _cubes_identical(serial, built):
                raise ConfigurationError(
                    f"the driver's {side} cube disagrees with the serial "
                    f"engine at {total} instructions"
                )
        identical = True
    return {
        "references": references,
        "i_references": icube.references[min(blocks)],
        "front_end_s": front_end_s,
        "stream_s": stream_s,
        "serial_s": serial_s,
        "partitioned_s": part_s,
        "i_build_s": i_build_s,
        "identical": identical,
        **peak_rss_mb(),
    }


def run_scale_benchmark(
    instructions: Sequence[int],
    repeats: int = 1,
    cube_jobs: int = 1,
    serial_limit: int = DEFAULT_SERIAL_LIMIT,
    cache_dir: Optional[Path] = None,
    stream=sys.stdout,
    specs=None,
) -> RunLedger:
    """The paper-surface cube along a scale axis, up to full Table 1 size.

    For each instruction budget: build the session (synthesize or map
    the programs and walk their traces: ``front_end_s``), then write the
    multiprogrammed data stream into one scratch file
    (:meth:`~repro.core.measurement.SuiteMeasurement.dstream_chunks`:
    ``stream_s``), then time the whole paper block-size surface through
    the chunked out-of-core driver, whose tasks map that file; the
    serial engine gets the file's pieces joined.  Then build the
    slots-0 I plane of the same block sizes through the session
    (``i_build_s``, the stream streamed from the traces included;
    ``i_references`` is its longest stream, the smallest block's).
    Budgets up to ``serial_limit`` also run the serial one-shot engine
    on both sides and each pair of cubes is asserted **bit-identical**
    (fatal otherwise); above the limit the serial passes are skipped and
    each build keeps its chunked ``A = 1`` cross-check against the
    independent direct-mapped sweep (one more task per block size on
    its pool).  Each budget runs in a fresh spawned process whose peak
    RSS and its cube workers' are recorded, so the ledger shows each
    budget's own memory rather than the largest earlier one.  The
    budgets share ``cache_dir``, so only the first one synthesizes the
    programs.  ``specs`` narrows the suite (default: Table 1).
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be at least 1, got {repeats}")
    if not instructions:
        raise ConfigurationError("need at least one instruction budget")
    own_cache = cache_dir is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-bench-cube-"))
        if own_cache
        else Path(cache_dir)
    )
    context = multiprocessing.get_context("spawn")
    ledger = RunLedger()
    per_scale: List[Dict[str, object]] = []
    try:
        for total in sorted(int(n) for n in instructions):
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                row = pool.submit(
                    _scale_row,
                    total, repeats, cube_jobs, serial_limit, root, specs,
                ).result()
            serial_s = row["serial_s"]
            part_s = row["partitioned_s"]
            identical = row["identical"]
            entry = {
                "instructions": total,
                "references": row["references"],
                "front_end_s": round(row["front_end_s"], 3),
                "stream_s": round(row["stream_s"], 3),
                "serial_wall_s": (
                    round(serial_s, 3) if serial_s is not None else None
                ),
                "partitioned_wall_s": round(part_s, 3),
                "serial_instr_per_s": (
                    round(total / serial_s, 1) if serial_s else None
                ),
                "partitioned_instr_per_s": round(total / part_s, 1),
                "i_references": row["i_references"],
                "i_build_s": round(row["i_build_s"], 3),
                "bit_identical_to_serial": identical,
                "peak_rss_mb": round(row["peak_rss_mb"], 1),
                "worker_peak_rss_mb": round(row["worker_peak_rss_mb"], 1),
            }
            per_scale.append(entry)
            if serial_s is not None:
                ledger.record_experiment(f"cube_serial:{total}", serial_s)
            ledger.record_experiment(f"cube_partitioned:{total}", part_s)
            serial_txt = f"serial={serial_s:.3f}s " if serial_s is not None else ""
            ident_txt = (
                "identical " if identical else ("" if identical is None else "DIFFER ")
            )
            print(
                f"[scale {total}] refs={row['references']} "
                f"front_end={row['front_end_s']:.3f}s stream={row['stream_s']:.3f}s "
                f"{serial_txt}partitioned={part_s:.3f}s "
                f"i_refs={row['i_references']} i_build={row['i_build_s']:.3f}s "
                f"{ident_txt}({total / part_s:,.0f} instr/s, "
                f"peak_rss={row['peak_rss_mb']:.0f}MB, "
                f"worker_peak_rss={row['worker_peak_rss_mb']:.0f}MB)",
                file=stream,
            )
    finally:
        if own_cache:
            shutil.rmtree(root, ignore_errors=True)
    full = per_scale[-1]
    ledger.set_run_info(
        benchmark="miss-cube-scale",
        cube_jobs=cube_jobs,
        repeats=repeats,
        serial_limit=serial_limit,
        scales=per_scale,
        full_scale_instructions=full["instructions"],
        full_scale_wall_s=full["partitioned_wall_s"],
        full_scale_wall_min=round(full["partitioned_wall_s"] / 60.0, 2),
        full_scale_instr_per_s=full["partitioned_instr_per_s"],
        peak_rss_mb=full["peak_rss_mb"],
        worker_peak_rss_mb=full["worker_peak_rss_mb"],
        wall_s=sum(e["partitioned_wall_s"] for e in per_scale),
    )
    print(
        f"full scale: {full['instructions']:,} instructions in "
        f"{full['partitioned_wall_s'] / 60.0:.1f} min "
        f"({full['partitioned_instr_per_s']:,.0f} instr/s), "
        f"peak rss {full['peak_rss_mb']:.0f} MB",
        file=stream,
    )
    return ledger


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the paper-surface miss cube along a scale axis."
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timing repeats per budget; best-of-N is reported (default: 3)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run ledger (JSON + ASCII twin) here",
    )
    parser.add_argument(
        "--scales",
        type=str,
        required=True,
        metavar="N,N,...",
        help="comma-separated instruction budgets (e.g. 400000,4000000); "
        "'paper' selects the full axis up to 2.4G instructions",
    )
    parser.add_argument(
        "--cube-jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the driver's tasks (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="artifact directory (default: a fresh temp dir, "
        "removed afterwards)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if args.cube_jobs < 1:
        parser.error(f"--cube-jobs must be at least 1, got {args.cube_jobs}")
    if args.scales.strip() == "paper":
        budgets: Sequence[int] = DEFAULT_SCALE_AXIS
    else:
        try:
            budgets = [int(part) for part in args.scales.split(",") if part]
        except ValueError:
            parser.error(f"invalid --scales value: {args.scales!r}")
    try:
        ledger = run_scale_benchmark(
            budgets,
            repeats=args.repeats,
            cube_jobs=args.cube_jobs,
            cache_dir=args.cache_dir,
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
