"""Set-partitioned, out-of-core, parallel miss-cube construction.

The single-pass engine (:mod:`repro.cache.misscube`) answers the whole
``(block size × sets × ways)`` cube exactly, but it is one serial pass
holding one process's worth of derived arrays — at the paper's
2.4G-instruction scale that is hours of one core and tens of gigabytes
of radix-chain and scan state.  This module splits the same computation into
independent tasks and runs all of them on one worker pool:

**Why partitioning is exact.**  Power-of-two set indices nest: the set
index of a ``2^k``-set cache is the low ``k`` bits of the block index.
Partition the reference stream by the low ``p`` bits of the block index
(the *coarsest* partitioned set index) and every geometry whose set
index contains those ``p`` bits decomposes exactly: each cache set lives
entirely inside one partition, the partition substream preserves each
set's reference subsequence verbatim, and LRU stack distances are
per-set quantities.  Each partition's miss counts can therefore be
computed independently — by the unmodified serial engine — and summed
(integer counts; addition is exact and order-independent, so the merged
cube is *bit-identical* to the one-shot serial cube).

**The block-size axis.**  For per-block-size streams the closure
condition is simply ``S >= partitions``.  When every block size is a
shift view of one shared byte-address stream, the partition key is the
coarsest covered block size's index bits — address bits
``[log2(Bmax*WB), log2(Bmax*WB) + p)`` — and a geometry ``(B, S)``
decomposes iff that window sits inside its set-index window:
``log2(S) >= p + log2(Bmax / B)``.  The paper grid (4/8/16-word blocks,
1–32 KW capacities) satisfies this for ``p = 3`` at every geometry.
Set counts *below* the closure threshold (the production cubes cover
every level down to one set) are inherently global — a single LRU stack
over the whole stream cannot be split — so each such ``(block size,
set count)`` slice of the *coarse residue* is a task of its own over
the whole stream.

**One task list per build.**  A build maps one list through one
executor call, heaviest first: the coarse residue slices, then (with
``cross_check``) one whole-stream
:func:`~repro.cache.fastsim.direct_mapped_miss_sweep` per block size,
then the fine set partitions.  The parent only scatters the stream,
merges the integer counts and compares every block size's ``A = 1``
base with its sweep (a disagreement is a fatal ``RuntimeError``).  Each
task returns its worker wall seconds with its counts; the
``cube.reduce`` span sums them per kind as ``coarse_s``, ``check_s``
and ``fine_s``.

**Out-of-core, shared not pickled.**  Both forms first write their
input into one spill bundle (:class:`~repro.trace.io.
StreamingBundleWriter`): one segment per partition, plus the whole
stream when a whole-stream task reads it.
:func:`partitioned_miss_cube_from_addresses` consumes its address
stream in O(chunk) memory — an ndarray (typically a memory-mapped trace
bundle from :meth:`~repro.engine.store.ArtifactStore.get_or_stream`) or
any iterable of address chunks.  A task carries only the spill locator
and memory-maps its segment, so nothing larger than a file locator is
ever pickled, every process reading a segment shares one set of
page-cache pages, and any worker — spawned, or forked for an earlier
build — sees the arrays.

**Failure containment.**  A worker pool that dies (``BrokenProcessPool``
twice without progress: the executor's ``ConfigurationError``) degrades
to the parent running the task list itself under a
``cube.serial_fallback`` span — same segments, same engine, identical
counts.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.cache.fastsim import direct_mapped_miss_sweep
from repro.cache.geometry import checked_block_words, checked_levels
from repro.cache.misscube import (
    MissCube,
    SetCounts,
    ShiftedStreams,
    _normalized_set_counts,
    miss_cube,
)
from repro.engine.executor import SweepExecutor
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.trace.io import StreamingBundleWriter, delete_entry, load_arrays
from repro.utils.units import WORD_BYTES, is_power_of_two, log2_int

__all__ = [
    "DEFAULT_PARTITIONS",
    "DEFAULT_CHUNK_REFS",
    "partitioned_miss_cube",
    "partitioned_miss_cube_from_addresses",
]

#: Default set-partition count.  Eight partitions (three index bits)
#: keep the whole paper grid fine-decomposable when the shared address
#: stream is partitioned at the 16-word block size, and bound each
#: partition task's memory to roughly an eighth of the serial pass.
DEFAULT_PARTITIONS = 8

#: Default partition-pass chunk length (references).  4M int64
#: addresses is 32 MB — large enough to amortize the per-chunk scatter,
#: small enough that the pass stays O(chunk) in any reasonable budget.
DEFAULT_CHUNK_REFS = 1 << 22

#: Task kinds, in the order a build lists them.
TASK_KINDS = ("coarse", "check", "fine")

#: Test-only fault hook: ``(parent_pid, {partition indices})``.  A
#: *forked worker* (pid differs from the recorded parent) asked to
#: reduce one of the listed partitions hard-exits, simulating an OOM
#: kill mid-reduce; the parent itself never faults, so the serial
#: fallback path stays exact.  See tests/cache/test_cubepart.py.
_FAULT_PARTS: Optional[Tuple[int, frozenset]] = None

#: ``(kind, spill segment, {block_words: set counts})``.
_Task = Tuple[str, str, Dict[int, Tuple[int, ...]]]

#: Where a task finds its streams: ``(spill digest, spill directory,
#: shifted)``, ``shifted`` for one address stream shared by every block
#: size.
_Locator = Tuple[str, str, bool]


def _maybe_fault(partition: int) -> None:
    if _FAULT_PARTS is not None:
        pid, parts = _FAULT_PARTS
        if os.getpid() != pid and partition in parts:
            os._exit(1)


# -- geometry bookkeeping ------------------------------------------------------


def _checked_partitions(partitions: int) -> int:
    partitions = int(partitions)
    if partitions < 1 or not is_power_of_two(partitions):
        raise ConfigurationError(
            f"cube partitions must be a positive power of two, got {partitions}"
        )
    return partitions


def _split_fine_coarse(
    per_block: Mapping[int, Sequence[int]],
    partition_bits: int,
    extra_bits: Mapping[int, int],
) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
    """Split each block size's set counts by partition closure.

    A set count is *fine* when its set-index bit window contains every
    partition bit (``log2(S) >= p + extra_bits[B]``, trivially true for
    ``p == 0``): those geometries decompose exactly across partitions.
    Everything below the threshold is *coarse residue*, answered one
    whole-stream slice at a time.
    """
    fine: Dict[int, List[int]] = {}
    coarse: Dict[int, List[int]] = {}
    for B, counts in per_block.items():
        levels = checked_levels(counts)
        threshold = partition_bits + extra_bits.get(B, 0)
        fine[B] = [
            S for S, level in levels.items()
            if partition_bits == 0 or level >= threshold
        ]
        coarse[B] = [
            S for S, level in levels.items()
            if not (partition_bits == 0 or level >= threshold)
        ]
    return fine, coarse


def _task_list(
    fine: Mapping[int, Sequence[int]],
    coarse: Mapping[int, Sequence[int]],
    checked: Mapping[int, Sequence[int]],
    partitions: int,
) -> List[_Task]:
    """One build's tasks, heaviest first.

    Coarse residue slices and ``A = 1`` checks each walk the whole
    stream (segment ``full``); a fine task walks one partition's
    substream (segment ``pNNN``) at every fine level of every block size.
    """
    tasks: List[_Task] = [
        ("coarse", "full", {B: (S,)})
        for B, counts in coarse.items()
        for S in counts
    ]
    tasks += [
        ("check", "full", {B: tuple(counts)})
        for B, counts in checked.items()
        if counts
    ]
    fine_counts = {B: tuple(counts) for B, counts in fine.items() if counts}
    if fine_counts:
        tasks += [
            ("fine", f"p{index:03d}", fine_counts) for index in range(partitions)
        ]
    return tasks


# -- tasks (module-level for pickling) -----------------------------------------


def _task_streams(
    locator: _Locator, segment: str, blocks: Sequence[int]
) -> Mapping[int, np.ndarray]:
    """A task's streams, memory-mapped from the spill bundle.

    Address-stream spills hold one address segment per name, shifted per
    block size on access; per-block-stream spills hold one segment per
    block size (``<segment>b<B>``).
    """
    digest, spill_dir, shifted = locator
    arrays = load_arrays(digest, cache_dir=Path(spill_dir))
    if arrays is None:
        raise ConfigurationError(f"cube spill bundle {digest} vanished mid-reduce")
    if shifted:
        return ShiftedStreams(arrays[segment], blocks)
    return {B: arrays[f"{segment}b{B}"] for B in blocks}


def _run_task(item: Tuple[Any, ...]) -> Tuple[Dict[int, Any], float]:
    """Worker task: one coarse slice, ``A = 1`` check or fine partition.

    Returns ``({block_words: counts}, wall seconds)``: hit curves by set
    count for cube tasks, the direct-mapped miss axis for checks.
    """
    locator, kind, segment, counts, max_ways = item
    started = time.perf_counter()
    if kind == "fine":
        _maybe_fault(int(segment[1:]))
    streams = _task_streams(locator, segment, tuple(counts))
    if kind == "check":
        value: Dict[int, Any] = {
            B: direct_mapped_miss_sweep(streams[B], wanted)
            for B, wanted in counts.items()
        }
    else:
        cube = miss_cube(streams, counts, max_ways)
        value = {B: dict(cube.hits[B]) for B in cube.block_words}
    return value, time.perf_counter() - started


# -- one build: spill, map, merge, check ---------------------------------------


@contextmanager
def _spill_bundle(
    spill_dir: Optional[Path], shifted: bool
) -> Iterator[Tuple[StreamingBundleWriter, _Locator]]:
    """A fresh spill bundle writer and its locator; the bundle (and an
    own directory) is removed on exit."""
    own = spill_dir is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-cubepart-")) if own else Path(spill_dir)
    )
    digest = f"cubepart-{uuid.uuid4().hex[:16]}"
    writer = StreamingBundleWriter(digest, cache_dir=root)
    try:
        yield writer, (digest, str(root), shifted)
    finally:
        writer.abort()  # drops an unfinished bundle; harmless once finalized
        delete_entry(digest, cache_dir=root)
        if own:
            shutil.rmtree(root, ignore_errors=True)


def _run_build(
    locator: _Locator,
    tasks: Sequence[_Task],
    per_block: Mapping[int, Sequence[int]],
    references: Mapping[int, int],
    max_ways: int,
    partitions: int,
    executor: SweepExecutor,
    tracer,
) -> MissCube:
    """Map the task list on the executor, merge, and check ``A = 1``.

    One ``chunk_size=1`` map lets idle workers take the next task in
    list order.  A pool that breaks for good (the executor's
    ``ConfigurationError``) drops to the parent running the whole list,
    which produces identical counts by construction.
    """
    items = [
        (locator, kind, segment, counts, max_ways) for kind, segment, counts in tasks
    ]
    seconds = dict.fromkeys(TASK_KINDS, 0.0)
    with tracer.span(
        "cube.reduce",
        tasks=len(items),
        partitions=partitions,
        backend=executor.backend,
        jobs=executor.jobs,
    ) as span:
        span.count("fallback_tasks", 0)
        try:
            outcomes = executor.map(_run_task, items, chunk_size=1)
        except ConfigurationError:
            span.count("fallback_tasks", len(items))
            with tracer.span("cube.serial_fallback", tasks=len(items)):
                outcomes = [_run_task(item) for item in items]
        for (kind, _, _), (_, wall) in zip(tasks, outcomes):
            seconds[kind] += wall
        for kind, wall in seconds.items():
            span.count(f"{kind}_s", wall)
        with tracer.span("cube.progress", stage="reduce") as beat:
            beat.count(
                "partitions_reduced", sum(kind == "fine" for kind, _, _ in tasks)
            )
        coarse = [B for kind, _, counts in tasks if kind == "coarse" for B in counts]
        if coarse:
            with tracer.span(
                "cube.coarse",
                blocks=",".join(str(B) for B in sorted(set(coarse))),
                levels=len(coarse),
            ) as residue:
                residue.count("worker_s", seconds["coarse"])

    merged: Dict[int, Dict[int, np.ndarray]] = {B: {} for B in references}
    axes: Dict[int, Dict[int, int]] = {}
    for (kind, _, _), (value, _) in zip(tasks, outcomes):
        if kind == "check":
            axes.update(value)
            continue
        for B, per_sets in value.items():
            for S, curve in per_sets.items():
                total = merged[B].get(S)
                merged[B][S] = curve if total is None else total + curve
    hits = {
        B: {S: merged[B][S] for S in checked_levels(per_block[B])}
        for B in references
    }
    cube = MissCube(references=dict(references), max_ways=max_ways, hits=hits)
    for B, axis in axes.items():
        cube.check_base(B, axis, "cubepart")
    return cube


# -- in-memory form ------------------------------------------------------------


def partitioned_miss_cube(
    streams: Mapping[int, np.ndarray],
    set_counts: SetCounts,
    max_ways: int,
    *,
    partitions: int = DEFAULT_PARTITIONS,
    executor: Optional[SweepExecutor] = None,
    tracer=None,
    cross_check: bool = False,
) -> MissCube:
    """:func:`~repro.cache.misscube.miss_cube`, split across set partitions.

    Bit-identical to the serial engine on the same inputs.  Each block
    size's stream is scattered by the low ``log2(partitions)`` block
    bits into a spill bundle; set counts ``S >= partitions`` are
    reduced per partition and summed, the rest — inherently global —
    are whole-stream slices.  Every task runs on ``executor`` (in the
    parent when it is serial).  With ``cross_check``, every block size's
    ``A = 1`` base is also checked against a whole-stream
    :func:`~repro.cache.fastsim.direct_mapped_miss_sweep`, one more task
    per block size.
    """
    blocks = checked_block_words(list(streams))
    per_block = _normalized_set_counts(blocks, set_counts)
    partitions = _checked_partitions(partitions)
    executor = executor if executor is not None else SweepExecutor()
    tracer = tracer if tracer is not None else NULL_TRACER
    fine, coarse = _split_fine_coarse(
        per_block, log2_int(partitions), {B: 0 for B in blocks}
    )
    tasks = _task_list(fine, coarse, per_block if cross_check else {}, partitions)
    whole = {B for _, segment, counts in tasks if segment == "full" for B in counts}
    references = {B: len(streams[B]) for B in blocks}

    with _spill_bundle(None, shifted=False) as (writer, locator):
        with tracer.span(
            "cube.partition", partitions=partitions, form="streams"
        ) as span:
            for B in blocks:
                if B not in whole and not fine[B]:
                    continue
                stream = np.asarray(streams[B], dtype=np.int64)
                if B in whole:
                    writer.append(f"fullb{B}", stream)
                if fine[B]:
                    span.count("references", len(stream))
                    key = stream & (partitions - 1)
                    for index in range(partitions):
                        writer.append(f"p{index:03d}b{B}", stream[key == index])
                del stream
        if tasks:
            writer.finalize()
        return _run_build(
            locator,
            tasks,
            per_block,
            references,
            int(max_ways),
            partitions,
            executor,
            tracer,
        )


# -- out-of-core form ----------------------------------------------------------


def _iter_address_chunks(
    addresses: Union[np.ndarray, Iterable[np.ndarray]], chunk_refs: int
) -> Iterable[np.ndarray]:
    if isinstance(addresses, np.ndarray):
        for start in range(0, len(addresses), chunk_refs):
            yield addresses[start : start + chunk_refs]
    else:
        for chunk in addresses:
            yield np.asarray(chunk)


def partitioned_miss_cube_from_addresses(
    addresses: Union[np.ndarray, Iterable[np.ndarray]],
    block_words: Sequence[int],
    set_counts: SetCounts,
    max_ways: int,
    *,
    partitions: int = DEFAULT_PARTITIONS,
    executor: Optional[SweepExecutor] = None,
    tracer=None,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    spill_dir: Optional[Path] = None,
    cross_check: bool = True,
    progress_refs: Optional[int] = None,
) -> MissCube:
    """The full cube of one byte-address stream, out-of-core and parallel.

    Bit-identical to
    :func:`~repro.cache.misscube.miss_cube_from_addresses` on the same
    stream.  ``addresses`` may be an ndarray (a memory-mapped bundle
    from :meth:`~repro.engine.store.ArtifactStore.get_or_stream` works
    unchanged and is never copied whole) or any iterable of address
    chunks; the partition pass consumes it in O(``chunk_refs``) memory,
    scattering by the coarsest block size's low partition bits into
    per-partition spill segments (:class:`~repro.trace.io.
    StreamingBundleWriter`), and writes the whole stream alongside when
    a coarse residue slice or the cross-check reads it.  Every task
    memory-maps its segment — locators are pickled, buffers never are —
    and runs the unmodified serial engine, or (``cross_check``, on by
    default) the independent whole-stream ``A = 1`` sweep per block
    size.
    """
    blocks = checked_block_words(block_words)
    per_block = _normalized_set_counts(blocks, set_counts)
    partitions = _checked_partitions(partitions)
    executor = executor if executor is not None else SweepExecutor()
    tracer = tracer if tracer is not None else NULL_TRACER
    if chunk_refs < 1:
        raise ConfigurationError(
            f"chunk_refs must be at least 1, got {chunk_refs}"
        )
    largest = blocks[-1]
    extra_bits = {B: log2_int(largest // B) for B in blocks}
    fine, coarse = _split_fine_coarse(per_block, log2_int(partitions), extra_bits)
    tasks = _task_list(fine, coarse, per_block if cross_check else {}, partitions)
    need_full = any(segment == "full" for _, segment, _ in tasks)
    need_parts = any(kind == "fine" for kind, _, _ in tasks)
    if progress_refs is None:
        progress_refs = 8 * chunk_refs

    shift = log2_int(largest * WORD_BYTES)
    consumed = 0
    with _spill_bundle(spill_dir, shifted=True) as (writer, locator):
        with tracer.span(
            "cube.partition", partitions=partitions, form="addresses"
        ) as span:
            since_beat = 0
            for chunk in _iter_address_chunks(addresses, chunk_refs):
                chunk = np.asarray(chunk, dtype=np.int64)
                if not len(chunk):
                    continue
                if need_full:
                    writer.append("full", chunk)
                if need_parts:
                    key = (chunk >> shift) & (partitions - 1)
                    for index in range(partitions):
                        writer.append(f"p{index:03d}", chunk[key == index])
                consumed += len(chunk)
                since_beat += len(chunk)
                span.count("references", len(chunk))
                span.count("chunks")
                if since_beat >= progress_refs:
                    with tracer.span("cube.progress", stage="partition") as beat:
                        beat.count("references_consumed", consumed)
                    since_beat = 0
        if consumed == 0:
            empty = np.empty(0, dtype=np.int64)
            return miss_cube({B: empty for B in blocks}, per_block, max_ways)
        if tasks:
            writer.finalize()
        return _run_build(
            locator,
            tasks,
            per_block,
            {B: consumed for B in blocks},
            int(max_ways),
            partitions,
            executor,
            tracer,
        )
