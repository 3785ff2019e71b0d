"""The miss cube's one driver: chunked, out-of-core, on any executor.

The single-pass engine (:mod:`repro.cache.misscube`) answers the whole
``(block size × sets × ways)`` cube of a stream, but holds every derived
array of the whole stream at once — at the paper's 2.4G-instruction
scale that is tens of gigabytes.  This driver runs the same engine over
each block size's stream in chunks of :data:`CHUNK_REFS` references, so
a build's memory follows the chunk, not the trace, and runs each block
size's work as independent tasks on a :class:`~repro.engine.executor.
SweepExecutor`.

**The LRU carry is exact.**  In front of each chunk the driver puts the
*carry*: every finest-level set's ``W`` most recent distinct blocks, all
ordered by last reference.  LRU inclusion makes that exact at every
coarser set count too: a block among a coarser set's ``W`` most recent
is among its finest set's ``W`` most recent, because the blocks above it
in its finest set are a subset of those above it in the coarser set.  So
the carry holds the top ``W`` of every coarser set's LRU stack, in stack
order, and every stack distance up to ``W`` in the chunk comes out as in
the unchunked stream; a block deeper than ``W``, carried or not, still
finds at least ``W`` distinct blocks ahead of it.  The carried blocks are
distinct, so each is a first occurrence in carry + chunk: they add no
hits, and they are not counted as references.  Summing the chunks'
integer hit curves therefore gives the unchunked cube bit for bit.

**Two tasks per block size.**  A cube task runs
:func:`~repro.cache.misscube.miss_cube` on carry + chunk with
``W = max_ways``.  A check task runs the independent
:func:`~repro.cache.fastsim.direct_mapped_miss_sweep` on carry + chunk
with ``W = 1`` (one resident block per set) and subtracts the carry's
references, which all miss.  The parent compares every block size's
``A = 1`` base with its check (:meth:`~repro.cache.misscube.MissCube.
check_base`; a disagreement is a fatal ``RuntimeError``).  The tasks are
mapped on the build's executor, cubes first, one at a time as workers
free up; each returns its worker wall seconds, which the ``cube.reduce``
span sums per kind as ``cube_s`` and ``check_s``.

**Out-of-core, shared not pickled.**  Both forms first write their input
into one spill bundle (:class:`~repro.trace.io.StreamingBundleWriter`):
one segment per block size for per-block streams, one address segment
shared by every block size (shifted per chunk) for an address stream.
:func:`partitioned_miss_cube_from_addresses` consumes its addresses in
O(chunk) memory — an ndarray (typically a memory-mapped bundle from
:meth:`~repro.engine.store.ArtifactStore.get_or_stream`) or any iterable
of address chunks.  A task carries only the spill locator and
memory-maps its segment, so nothing larger than a file locator is
pickled and any worker — spawned, or forked for an earlier build — sees
the arrays.

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
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.cache.fastsim import addresses_to_blocks, direct_mapped_miss_sweep
from repro.cache.geometry import checked_block_words, checked_levels
from repro.cache.misscube import (
    MissCube,
    SetCounts,
    _normalized_set_counts,
    miss_cube,
)
from repro.cache.stackdist import _dense_ids_and_prev
from repro.engine.executor import SweepExecutor
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.trace.io import StreamingBundleWriter, load_arrays

__all__ = [
    "CHUNK_REFS",
    "DEFAULT_PARTITIONS",
    "partitioned_miss_cube",
    "partitioned_miss_cube_from_addresses",
]

#: References per chunk, for every task and for the spill pass.  2^20
#: was the fastest of 2^18, 2^20 and 2^22 on a 40M-instruction data
#: stream (DESIGN.md §18); it keeps a task's kernel state to a few
#: hundred megabytes and the carry (at most ``sets × max_ways`` blocks)
#: small beside a chunk.
CHUNK_REFS = 1 << 20

#: Set partitions per build: one, since nothing is split by set.
DEFAULT_PARTITIONS = 1

#: Task kinds, in the order a build lists them.
TASK_KINDS = ("cube", "check")

#: Spill-pass chunks between two ``cube.progress`` heartbeats.
_BEAT_CHUNKS = 32

#: Test-only fault hook: ``(parent_pid, {(kind, block_words)})``.  A
#: *forked worker* (pid differs from the recorded parent) asked to run
#: one of the listed tasks hard-exits, simulating an OOM kill mid-build;
#: the parent itself never faults, so the serial fallback path stays
#: exact.  See tests/cache/test_cubepart.py.
_FAULT_TASKS: Optional[Tuple[int, frozenset]] = None

#: Where a task finds its stream: ``(spill digest, spill directory,
#: shifted)``, ``shifted`` for one address stream shared by every block
#: size.
_Locator = Tuple[str, str, bool]


def _maybe_fault(kind: str, block_words: int) -> None:
    if _FAULT_TASKS is not None:
        pid, tasks = _FAULT_TASKS
        if os.getpid() != pid and (kind, block_words) in tasks:
            os._exit(1)


# -- the chunked count -----------------------------------------------------------


def _lru_carry(seq: np.ndarray, num_sets: int, ways: int) -> np.ndarray:
    """Each of ``num_sets`` sets' ``ways`` most recent distinct blocks.

    All of them in one array, ordered by last reference in ``seq``,
    oldest first.
    """
    # A reference is its block's last unless a later one points back.
    _, previous, _ = _dense_ids_and_prev(seq)
    last = np.ones(len(seq), dtype=bool)
    last[previous[previous >= 0]] = False
    newest = seq[np.flatnonzero(last)[::-1]]
    # Each block's recency rank within its set, 0 for the newest.
    sets = newest & (num_sets - 1)
    by_set = np.argsort(sets, kind="stable")
    grouped = sets[by_set]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    rank = np.arange(len(grouped)) - np.repeat(
        starts, np.diff(np.r_[starts, len(grouped)])
    )
    return newest[np.sort(by_set[rank < ways])[::-1]]


def _chunked_counts(
    kind: str,
    chunks: Iterable[np.ndarray],
    block_words: int,
    set_counts: Sequence[int],
    max_ways: int,
) -> Dict[int, Any]:
    """One task's counts over a block stream read in chunks.

    ``"cube"`` returns ``{num_sets: hits by ways}`` at ``max_ways``;
    ``"check"`` returns the direct-mapped ``{num_sets: misses}``.  Each
    chunk runs with the previous sequence's LRU carry in front of it.
    """
    ways = max_ways if kind == "cube" else 1
    finest = max(set_counts)
    if kind == "cube":
        totals: Dict[int, Any] = {
            int(S): np.zeros(max_ways + 1, dtype=np.int64) for S in set_counts
        }
    else:
        totals = {int(S): 0 for S in set_counts}
    carry = np.empty(0, dtype=np.int64)
    previous: Optional[np.ndarray] = None
    for chunk in chunks:
        if previous is not None:
            carry = _lru_carry(previous, finest, ways)
        seq = np.concatenate((carry, chunk)) if len(carry) else chunk
        if kind == "cube":
            hits = miss_cube({block_words: seq}, set_counts, max_ways).hits
            for S, curve in hits[block_words].items():
                totals[S] += curve
        else:
            for S, misses in direct_mapped_miss_sweep(seq, set_counts).items():
                totals[S] += misses - len(carry)
        previous = seq
    return totals


# -- tasks (module-level for pickling) -----------------------------------------


def _task_chunks(
    locator: _Locator, block_words: int, chunk_refs: int
) -> Iterator[np.ndarray]:
    """A task's block stream, memory-mapped from the spill bundle and
    read ``chunk_refs`` references at a time."""
    digest, spill_dir, shifted = locator
    arrays = load_arrays(digest, cache_dir=Path(spill_dir))
    if arrays is None:
        raise ConfigurationError(f"cube spill bundle {digest} vanished mid-build")
    source = arrays["addresses" if shifted else f"b{block_words}"]
    for start in range(0, len(source), chunk_refs):
        chunk = source[start : start + chunk_refs]
        if shifted:
            yield addresses_to_blocks(chunk, block_words)
        else:
            yield np.asarray(chunk, dtype=np.int64)


def _run_task(item: Tuple[Any, ...]) -> Tuple[Dict[int, Any], float]:
    """Worker task: one block size's cube or ``A = 1`` check.

    Returns ``(counts, wall seconds)``.
    """
    locator, kind, block_words, set_counts, max_ways, chunk_refs = item
    started = time.perf_counter()
    _maybe_fault(kind, block_words)
    counts = _chunked_counts(
        kind,
        _task_chunks(locator, block_words, chunk_refs),
        block_words,
        set_counts,
        max_ways,
    )
    return counts, time.perf_counter() - started


# -- one build: spill, map, check ----------------------------------------------


@contextmanager
def _spill_bundle(shifted: bool) -> Iterator[Tuple[StreamingBundleWriter, _Locator]]:
    """A fresh spill bundle writer and its locator, in a temporary
    directory removed on exit."""
    root = Path(tempfile.mkdtemp(prefix="repro-cubepart-"))
    digest = f"cubepart-{uuid.uuid4().hex[:16]}"
    writer = StreamingBundleWriter(digest, cache_dir=root)
    try:
        yield writer, (digest, str(root), shifted)
    finally:
        writer.abort()  # drops an unfinished bundle; harmless once finalized
        shutil.rmtree(root, ignore_errors=True)


def _checked_set_counts(
    blocks: Tuple[int, ...], set_counts: SetCounts, max_ways: int
) -> Dict[int, Tuple[int, ...]]:
    """Validated per-block-size set counts, before any task runs."""
    if max_ways < 1:
        raise ConfigurationError(f"max_ways must be at least 1, got {max_ways}")
    per_block = _normalized_set_counts(blocks, set_counts)
    return {B: tuple(checked_levels(counts)) for B, counts in per_block.items()}


def _run_build(
    locator: _Locator,
    per_block: Mapping[int, Tuple[int, ...]],
    references: Mapping[int, int],
    max_ways: int,
    executor: SweepExecutor,
    tracer,
) -> MissCube:
    """Map the task list on the executor, then check every ``A = 1`` base.

    One ``chunk_size=1`` map lets idle workers take the next task in
    list order: cube tasks before checks, each by references × set
    counts.  A pool that breaks for good (the executor's
    ``ConfigurationError``) drops to the parent running the whole list,
    which produces identical counts by construction.
    """
    tasks = sorted(
        ((kind, B) for kind in TASK_KINDS for B in per_block if per_block[B]),
        key=lambda task: (
            TASK_KINDS.index(task[0]),
            -references[task[1]] * len(per_block[task[1]]),
        ),
    )
    items = [
        (locator, kind, B, per_block[B], max_ways, CHUNK_REFS) for kind, B in tasks
    ]
    seconds = dict.fromkeys(TASK_KINDS, 0.0)
    with tracer.span(
        "cube.reduce",
        tasks=len(items),
        chunk_refs=CHUNK_REFS,
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
        for (kind, _), (_, wall) in zip(tasks, outcomes):
            seconds[kind] += wall
        for kind, wall in seconds.items():
            span.count(f"{kind}_s", wall)
        with tracer.span("cube.progress", stage="reduce") as beat:
            beat.count("tasks_reduced", len(items))

    hits: Dict[int, Dict[int, np.ndarray]] = {B: {} for B in per_block}
    axes: Dict[int, Dict[int, int]] = {}
    for (kind, B), (counts, _) in zip(tasks, outcomes):
        (hits if kind == "cube" else axes)[B] = counts
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
    executor: Optional[SweepExecutor] = None,
    tracer=None,
) -> MissCube:
    """:func:`~repro.cache.misscube.miss_cube` through the chunked driver.

    Bit-identical to the serial engine on the same inputs, and every
    block size's ``A = 1`` base is checked against the independent
    direct-mapped sweep.  Each stream is spilled to its own segment; the
    tasks run on ``executor`` (in the parent when it is serial).
    """
    blocks = checked_block_words(list(streams))
    per_block = _checked_set_counts(blocks, set_counts, max_ways)
    executor = executor if executor is not None else SweepExecutor()
    tracer = tracer if tracer is not None else NULL_TRACER
    references: Dict[int, int] = {}
    with _spill_bundle(shifted=False) as (writer, locator):
        with tracer.span("cube.spill", form="streams") as span:
            for B in blocks:
                stream = np.asarray(streams[B], dtype=np.int64)
                references[B] = len(stream)
                writer.append(f"b{B}", stream)
                span.count("references", len(stream))
        writer.finalize()
        return _run_build(
            locator, per_block, references, int(max_ways), executor, tracer
        )


# -- out-of-core form ----------------------------------------------------------


def _iter_address_chunks(
    addresses: Union[np.ndarray, Iterable[np.ndarray]]
) -> Iterable[np.ndarray]:
    if isinstance(addresses, np.ndarray):
        for start in range(0, len(addresses), CHUNK_REFS):
            yield addresses[start : start + CHUNK_REFS]
    else:
        for chunk in addresses:
            yield np.asarray(chunk)


def partitioned_miss_cube_from_addresses(
    addresses: Union[np.ndarray, Iterable[np.ndarray]],
    block_words: Sequence[int],
    set_counts: SetCounts,
    max_ways: int,
    *,
    executor: Optional[SweepExecutor] = None,
    tracer=None,
) -> MissCube:
    """The full cube of one byte-address stream, out-of-core.

    Bit-identical to
    :func:`~repro.cache.misscube.miss_cube_from_addresses` on the same
    stream, with every block size's ``A = 1`` base checked.
    ``addresses`` may be an ndarray (a memory-mapped bundle from
    :meth:`~repro.engine.store.ArtifactStore.get_or_stream` works
    unchanged and is never copied whole) or any iterable of address
    chunks; the spill pass consumes it in O(chunk) memory into one
    address segment, which every task memory-maps and shifts to its
    block size one chunk at a time.
    """
    blocks = checked_block_words(block_words)
    per_block = _checked_set_counts(blocks, set_counts, max_ways)
    executor = executor if executor is not None else SweepExecutor()
    tracer = tracer if tracer is not None else NULL_TRACER
    consumed = 0
    with _spill_bundle(shifted=True) as (writer, locator):
        with tracer.span("cube.spill", form="addresses") as span:
            writer.append("addresses", np.empty(0, dtype=np.int64))
            for index, chunk in enumerate(_iter_address_chunks(addresses), 1):
                writer.append("addresses", np.asarray(chunk, dtype=np.int64))
                consumed += len(chunk)
                span.count("references", len(chunk))
                span.count("chunks")
                if index % _BEAT_CHUNKS == 0:
                    with tracer.span("cube.progress", stage="spill") as beat:
                        beat.count("references_consumed", consumed)
        writer.finalize()
        return _run_build(
            locator,
            per_block,
            dict.fromkeys(blocks, consumed),
            int(max_ways),
            executor,
            tracer,
        )
