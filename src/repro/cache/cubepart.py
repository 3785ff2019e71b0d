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

**Read where it was written.**  A build's input is a :class:`StreamFile`:
a small picklable description of one file of int64 references — its
path, the per-program lengths and the quanta.  Each task maps the file
itself, takes the programs' ranges quantum by quantum
(:func:`~repro.trace.multiprogram.iter_interleaved`), gathers the pieces
into whole chunks and, in the address form, shifts each chunk to its
block size.  Nothing larger than the description is pickled, any worker
(spawned, or forked for an earlier build) sees the file, and no stream is
copied for a build: the session writes each block size's instruction
stream once, per-benchmark sequences back to back, and hard-links the
data side's already interleaved address segment (one program, one
quantum) into the build's scratch directory (:meth:`~repro.core.
measurement.SuiteMeasurement.warm_miss_cube`).

**One pool for many builds.**  A task is a pure function of its item: it
reads its file and the item's parameters (the chunk length included),
nothing the parent built after its worker forked, and it keeps no map of
the file once it returns.  So a session maps every build on its one
executor, whose pool forks at the first parallel build and serves the
later ones until the session retires it (:meth:`~repro.engine.executor.
SweepExecutor.retire_pool`); the counts are the same on a fresh pool, a
reused one or in the parent.

**Failure containment.**  A worker pool that dies is the executor's to
outlive: after two breaks without progress, :meth:`~repro.engine.
executor.SweepExecutor.map` runs the unfinished tasks in the parent
under an ``executor.serial_fallback`` span — same files, same engine,
identical counts.  A task's own error, such as a missing input file, is
no dead pool: it surfaces as raised, and no task runs twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
from repro.trace.multiprogram import iter_interleaved

__all__ = [
    "CHUNK_REFS",
    "DEFAULT_PARTITIONS",
    "StreamFile",
    "partitioned_miss_cube",
    "partitioned_miss_cube_from_addresses",
]

#: References per chunk, for every task.  2^20 was the fastest of 2^18,
#: 2^20 and 2^22 on a 40M-instruction data stream (DESIGN.md §18); it
#: keeps a task's kernel state to a few hundred megabytes and the carry
#: (at most ``sets × max_ways`` blocks) small beside a chunk.
CHUNK_REFS = 1 << 20

#: Set partitions per build: one, since nothing is split by set.
DEFAULT_PARTITIONS = 1

#: Task kinds, in the order a build lists them.
TASK_KINDS = ("cube", "check")


@dataclass(frozen=True)
class StreamFile:
    """Where a build's stream lies: one file of int64 references.

    From byte ``offset`` on, the file holds each program's sequence back
    to back (``lengths[i]`` references for program ``i``); the stream is
    their round-robin interleave, ``quanta[i]`` references of program
    ``i`` at a time.  Iterating yields the stream's pieces in order as
    views of the mapped file, so the stream is never read whole.
    """

    path: str
    lengths: Tuple[int, ...]
    quanta: Tuple[int, ...]
    offset: int = 0

    @classmethod
    def from_npy(cls, path) -> "StreamFile":
        """A one-dimensional int64 ``.npy`` file as a one-program stream.

        Its length and data offset come from the file's own header.
        """
        array = np.load(path, mmap_mode="r")
        if array.dtype != np.int64 or array.ndim != 1:
            raise ConfigurationError(
                f"{path} holds {array.dtype} of shape {array.shape}, "
                f"not a one-dimensional int64 stream"
            )
        return cls(str(path), (len(array),), (max(1, len(array)),), array.offset)

    def __iter__(self) -> Iterator[np.ndarray]:
        total = sum(self.lengths)
        if total:
            stream = np.memmap(
                self.path, dtype=np.int64, mode="r", offset=self.offset, shape=(total,)
            )
        else:  # an empty file cannot be mapped
            stream = np.empty(0, dtype=np.int64)
        bounds = np.cumsum((0, *self.lengths))
        return iter_interleaved(
            [stream[a:b] for a, b in zip(bounds, bounds[1:])], self.quanta
        )


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


def _iter_chunks(
    pieces: Iterable[np.ndarray], chunk_refs: int
) -> Iterator[np.ndarray]:
    """``pieces`` joined, as int64 chunks of exactly ``chunk_refs``
    references (the last one shorter).

    A piece at least a chunk long is sliced, never copied whole; small
    pieces, such as the quanta of a multiprogrammed stream, are gathered
    into whole chunks.
    """
    pending: List[np.ndarray] = []
    held = 0
    for piece in pieces:
        while len(piece):
            take = min(chunk_refs - held, len(piece))
            pending.append(piece[:take])
            piece = piece[take:]
            held += take
            if held == chunk_refs:
                yield _joined(pending)
                pending, held = [], 0
    if pending:
        yield _joined(pending)


def _joined(pieces: List[np.ndarray]) -> np.ndarray:
    if len(pieces) == 1:
        return np.asarray(pieces[0], dtype=np.int64)
    return np.concatenate(pieces).astype(np.int64, copy=False)


def _run_task(item: Tuple[Any, ...]) -> Tuple[Dict[int, Any], float]:
    """Worker task: one block size's cube or ``A = 1`` check.

    Maps the task's stream file and reads it ``chunk_refs`` references at
    a time, shifting each chunk of an address stream (``shifted``) to
    the block size.  Returns ``(counts, wall seconds)``.
    """
    stream, shifted, kind, block_words, set_counts, max_ways, chunk_refs = item
    started = time.perf_counter()
    chunks = _iter_chunks(stream, chunk_refs)
    if shifted:
        chunks = (addresses_to_blocks(chunk, block_words) for chunk in chunks)
    counts = _chunked_counts(kind, chunks, block_words, set_counts, max_ways)
    return counts, time.perf_counter() - started


# -- one build: map, check ----------------------------------------------------


def _checked_set_counts(
    blocks: Tuple[int, ...], set_counts: SetCounts, max_ways: int
) -> Dict[int, Tuple[int, ...]]:
    """Validated per-block-size set counts, before any task runs."""
    if max_ways < 1:
        raise ConfigurationError(f"max_ways must be at least 1, got {max_ways}")
    per_block = _normalized_set_counts(blocks, set_counts)
    return {B: tuple(checked_levels(counts)) for B, counts in per_block.items()}


def _run_build(
    streams: Mapping[int, StreamFile],
    shifted: bool,
    per_block: Mapping[int, Tuple[int, ...]],
    max_ways: int,
    executor: Optional[SweepExecutor],
    tracer,
) -> MissCube:
    """Map the task list on the executor, then check every ``A = 1`` base.

    One ``chunk_size=1`` map lets idle workers take the next task in
    list order: cube tasks before checks, each by references × set
    counts.
    """
    executor = executor if executor is not None else SweepExecutor()
    tracer = tracer if tracer is not None else NULL_TRACER
    references = {B: sum(streams[B].lengths) for B in per_block}
    tasks = sorted(
        ((kind, B) for kind in TASK_KINDS for B in per_block if per_block[B]),
        key=lambda task: (
            TASK_KINDS.index(task[0]),
            -references[task[1]] * len(per_block[task[1]]),
        ),
    )
    items = [
        (streams[B], shifted, kind, B, per_block[B], max_ways, CHUNK_REFS)
        for kind, B in tasks
    ]
    seconds = dict.fromkeys(TASK_KINDS, 0.0)
    with tracer.span(
        "cube.reduce",
        tasks=len(items),
        chunk_refs=CHUNK_REFS,
        backend=executor.backend,
        jobs=executor.jobs,
    ) as span:
        outcomes = executor.map(_run_task, items, chunk_size=1)
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
    cube = MissCube(references=references, max_ways=max_ways, hits=hits)
    for B, axis in axes.items():
        cube.check_base(B, axis, "cubepart")
    return cube


# -- the two forms --------------------------------------------------------------


def partitioned_miss_cube(
    streams: Mapping[int, StreamFile],
    set_counts: SetCounts,
    max_ways: int,
    *,
    executor: Optional[SweepExecutor] = None,
    tracer=None,
) -> MissCube:
    """:func:`~repro.cache.misscube.miss_cube` through the chunked driver.

    ``streams`` maps each block size to the file of its block stream.
    Bit-identical to the serial engine on the same streams, and every
    block size's ``A = 1`` base is checked against the independent
    direct-mapped sweep.  The tasks run on ``executor`` (in the parent
    when it is serial), each mapping its block size's file in place.
    """
    blocks = checked_block_words(list(streams))
    per_block = _checked_set_counts(blocks, set_counts, max_ways)
    return _run_build(streams, False, per_block, int(max_ways), executor, tracer)


def partitioned_miss_cube_from_addresses(
    addresses: StreamFile,
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
    stream, with every block size's ``A = 1`` base checked.  Every task
    maps the one ``addresses`` file (a store segment described by
    :meth:`StreamFile.from_npy`, typically) and shifts it to its block
    size one chunk at a time.
    """
    blocks = checked_block_words(block_words)
    per_block = _checked_set_counts(blocks, set_counts, max_ways)
    streams = dict.fromkeys(blocks, addresses)
    return _run_build(streams, True, per_block, int(max_ways), executor, tracer)
