"""Single-pass all-associativity LRU simulation via stack distances.

The classic Mattson inclusion result: under LRU, a reference hits an
``S``-set, ``A``-way cache iff its *stack distance* within its set — one
plus the number of distinct blocks referenced in that set since the
previous reference to the same block — is at most ``A``.  Distances are a
property of the (stream, set count) pair alone, so histogramming them
answers **every** associativity at once: ``misses(S, A)`` for the whole
``(size x ways)`` plane falls out of one pass per swept set count.

The pass itself is vectorized.  Identities that make it possible:

* *Run compression, carried down the chain.*  A reference whose in-set
  predecessor is the same block has stack distance exactly 1 and leaves
  the LRU stack unchanged (it touches the top).  Dropping such runs
  preserves every other distance; the dropped count is added back as
  hits at every ``ways >= 1``.  A finer set's substream is a subsequence
  of its coarser set's, so a dropped reference stays a distance-1 hit
  at every finer level, and only each level's survivors go on.
* *The scan identity.*  Within one set's substream (in time order,
  positions ``0..m-1``), let ``p_i`` be the position of the previous
  reference to the same block, ``b_i = i - p_i`` the window length, and
  ``f_j = next_j - j`` the forward gap to the next reference to the
  block at ``j`` (unbounded if none).  A window position ``j = i - o``,
  ``o in [1, b_i)``, contributes a *distinct* block iff it is that
  block's last reference before ``i``, i.e. iff ``f_{i-o} > o``; so
  ``d_i = 1 + #{o in [1, b_i) : f_{i-o} > o}``, which needs no
  per-block bookkeeping, only ``f`` and ``b``.  Only distances up to
  ``W + 1`` (``W = max_ways``) matter, so the count may stop at ``W``
  contributing positions.  Sets are contiguous segments of the grouped
  level stream and a window never leaves its set, so one pass over the
  whole level serves every set at once.
* *Shifts first, then a bounded scan.*  Offsets ``1..K`` are counted for
  every reference together by ``K`` shifted contiguous comparisons of
  ``min(f_{i-o}, b_i) > o`` over the level (no gather, no sort), on
  values clipped to ``K + 1`` so the compares run on bytes.  That is
  exact for every window of length at most ``K + 1`` and for every
  window already holding ``W`` distinct blocks; the few remaining
  references continue with a blocked gather scan whose block width
  doubles each round (under a fixed element budget) and which stops at
  ``W`` contributing positions or at ``p_i``.
* *The ``W`` bound.*  Let queries ``i_1 < ... < i_k`` all scan position
  ``j``.  Each query's block is absent from ``[j, i)`` (``j`` lies inside
  its window), and every earlier query lies in ``(j, i_k)``, so the
  earlier queries' blocks are pairwise distinct and all inside the part
  of ``i_k``'s window it scanned before reaching ``j``.  It went on to
  ``j`` only because it had seen fewer than ``W`` distinct blocks, so
  ``k <= W``: at most ``W`` queries scan any position, and a level costs
  ``O((K + W) n)`` — the doubling blocks overshoot each query's exact
  stopping point by at most about a factor of two.
* *First references never hit.*  A block's first reference within its
  set is its first reference ever (the set index is a function of the
  block), so its distance is unbounded: it lands in the ``W + 1`` bin
  without being scanned.

Set counts are swept with the PR 3 nesting: the set index of a
``2^(k+1)``-set cache refines the ``2^k``-set index by one bit, so the
grouped substreams are produced by an LSD radix pass — one O(n) stable
partition on one bit per level.  (A global bit partition keeps every set
contiguous and in time order; no miss count depends on the *order of
sets*.)  Each element's *link* is the chain position of the previous
reference to its block (its own, for a first reference).  Compression
re-points each survivor's link at its block's previous survivor before
dropping the rest, and the partition moves links with their elements,
so every link names an element still in the chain.  Each level's
histogram is taken right after its harvest.

These are the miss cube's internals (:mod:`~repro.cache.misscube` is
the only caller); property-based tests pin the cube to the dict-LRU and
step-by-step ``Cache`` oracles in ``tests/cache/oracles.py``, and every cube
build checks its ``A = 1`` base against the independent
:func:`~repro.cache.fastsim.direct_mapped_miss_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["MissPlane"]

#: Offsets counted by shifted whole-level comparisons before any gather
#: (the scan's ``K``); at most ``126`` so counts and values clipped to
#: ``K + 1`` fit one byte.
_SCAN_SHIFTS = 16

#: Block width of the gather scan's first round; it doubles each round.
_SCAN_WIDTH = 16

#: Elements gathered per block of the scan (queries x width): bounds the
#: scan's scratch memory at any stream length.
_SCAN_BUDGET = 1 << 20


def _dense_ids_and_prev(blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Dense block ids and previous-occurrence times, from one argsort.

    Returns ``(dense, pocc, num_distinct)`` where ``dense[i]`` is a
    compact id for ``blocks[i]`` and ``pocc[i]`` is the time index of the
    previous reference to the same block (-1 if none).  A block's
    previous occurrence is in the same set at *every* power-of-two set
    count (the set index is a function of the block index), so this is
    computed once per stream and shared by all swept levels.
    """
    n = len(blocks)
    dense = np.empty(n, dtype=np.int64)
    pocc = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return dense, pocc, 0
    ibits = max(int(n - 1).bit_length(), 1)
    if int(blocks.min()) >= 0 and int(blocks.max()) < (1 << (62 - ibits)):
        # Pack (block, time) into one word: one value sort replaces the
        # argsort plus its scattered gathers.
        order = np.sort((blocks << ibits) | np.arange(n, dtype=np.int64))
        sorted_blocks = order >> ibits
        np.bitwise_and(order, (1 << ibits) - 1, out=order)
    else:
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
    ids_sorted = np.empty(n, dtype=np.int64)
    ids_sorted[0] = 0
    same = sorted_blocks[1:] == sorted_blocks[:-1]
    np.cumsum(~same, out=ids_sorted[1:])
    dense[order] = ids_sorted
    repeat = np.flatnonzero(same) + 1
    pocc[order[repeat]] = order[repeat - 1]
    return dense, pocc, int(ids_sorted[-1]) + 1


def _partition_bit(
    cur: np.ndarray, link: np.ndarray, level: int, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stably partition the chain by bit ``level`` of ``cur``.

    Zeros first, ones after, original order within each half (a stable
    sort of one bit, which numpy runs as an O(n) radix pass).  Any two
    adjacent elements of different sets already differ in their low
    ``level`` bits, so a *global* stable partition keeps every refined
    set contiguous and in time order — no per-segment bookkeeping.
    Links are chain positions: they move with their elements.  ``cols``
    is ``0..len(cur) - 1``.
    """
    order = np.argsort((cur & (1 << level)).astype(bool), kind="stable")
    pos = np.empty_like(link)
    pos[order] = cols
    return cur[order], pos[link[order]]


def _shifted_counts(
    gap: np.ndarray, queries: np.ndarray, window: np.ndarray
) -> np.ndarray:
    """Each query's distinct-block count over window offsets ``1..K``.

    ``K`` shifted comparisons of ``min(f_{i-o}, b_i) > o`` over the
    whole level, on values clipped to ``K + 1`` so they run on bytes.
    Exact for every window of length at most ``K + 1``.
    """
    shifts = _SCAN_SHIFTS
    length = len(gap)
    short_gap = np.minimum(gap, shifts + 1).astype(np.int8)
    reach = np.zeros(length, dtype=np.int8)
    reach[queries] = np.minimum(window, shifts + 1)
    count = np.zeros(length, dtype=np.int8)
    both = np.empty(length, dtype=np.int8)
    counted = np.empty(length, dtype=bool)
    for o in range(1, min(shifts, length - 1) + 1):
        np.minimum(short_gap[:-o], reach[o:], out=both[o:])
        np.greater(both[o:], o, out=counted[o:])
        count[o:] += counted[o:]
    return count[queries].astype(np.int64)


def _scan_tail(
    gap: np.ndarray,
    pos: np.ndarray,
    window: np.ndarray,
    count: np.ndarray,
    max_ways: int,
) -> np.ndarray:
    """Finish the distinct-block counts of windows longer than ``K + 1``.

    ``pos``/``window``/``count`` are the unfinished queries' positions,
    window lengths ``b`` and counts over offsets ``1..K``.  Each round
    gathers the next block of offsets for every live query (in row
    chunks within :data:`_SCAN_BUDGET`), adds the positions that hold
    their block's last reference before the query, and retires queries
    that reached ``max_ways`` or their window's start.  Returns
    ``count``, updated in place and exact up to ``max_ways``.
    """
    live = np.arange(len(pos))
    lo = _SCAN_SHIFTS + 1
    width = _SCAN_WIDTH
    while len(live):
        offsets = np.arange(lo, lo + width)
        rows = _SCAN_BUDGET // width
        for start in range(0, len(live), rows):
            chunk = live[start : start + rows]
            block = np.take(gap, pos[chunk, None] - offsets, mode="clip")
            # Offsets at or past the window's start never count.
            np.minimum(block, window[chunk, None], out=block)
            count[chunk] += np.count_nonzero(block > offsets, axis=1)
        lo += width
        width = min(2 * width, _SCAN_BUDGET)
        live = live[(count[live] < max_ways) & (window[live] > lo)]
    return count


def _distance_histogram(
    queries: np.ndarray, prev: np.ndarray, length: int, max_ways: int
) -> np.ndarray:
    """Clipped stack-distance histogram of one level's repeat references.

    ``queries`` (ascending) and ``prev`` are the compressed positions of
    the level's non-first survivors and of their blocks' previous
    survivors, in a grouped stream of ``length`` survivors.  Returns
    counts by distance ``0..max_ways + 1`` (distances clipped at
    ``max_ways + 1``) from the scan identity in the module docstring.
    """
    window = queries - prev
    # f_{p_i} = b_i; a position whose block never recurs keeps a gap
    # longer than any window.
    gap = np.full(length, length, dtype=window.dtype)
    gap[prev] = window
    count = _shifted_counts(gap, queries, window)
    tail = np.flatnonzero((window > _SCAN_SHIFTS + 1) & (count < max_ways))
    if len(tail):
        count[tail] = _scan_tail(
            gap, queries[tail], window[tail], count[tail], max_ways
        )
    np.minimum(count, max_ways, out=count)
    count += 1
    return np.bincount(count, minlength=max_ways + 2)


def _compress(cur: np.ndarray, link: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Drop one level's in-set repeats and re-point links at survivors.

    ``cur`` is the level's grouped chain (contiguous per-set segments,
    time order within) and ``link[i]`` the chain position of the
    previous reference to the same block, or ``i`` for a block's first
    reference.  Adjacent equal blocks are in-set repeats.  Through
    ``cpos``, a survivor's link moves to the run start of the reference
    it named: the block's previous survivor, i.e. its previous position
    in the compressed chain.  First references always survive and keep
    linking to themselves.
    """
    keep = np.empty(len(cur), dtype=bool)
    keep[0] = True
    np.not_equal(cur[1:], cur[:-1], out=keep[1:])
    cpos = np.cumsum(keep, dtype=link.dtype)
    cpos -= 1  # chain position -> compressed position of its run start
    return cur[keep], cpos[link[keep]]


def _level_hits(
    link: np.ndarray, cols: np.ndarray, references: int, max_ways: int
) -> np.ndarray:
    """Cumulative hits by ways of one level's compressed chain.

    ``cols`` is ``0..len(link) - 1``.  The stream's other
    ``references - len(link)`` references, dropped at this level or a
    coarser one, are hits of distance exactly 1; first references
    (linked to themselves) miss at every associativity.
    """
    survivors = len(link)
    queries = np.flatnonzero(link < cols)
    hist = _distance_histogram(queries, link[queries], survivors, max_ways)
    hist[max_ways + 1] += survivors - len(queries)
    hits = np.cumsum(hist)[: max_ways + 1]
    hits[1:] += references - survivors
    return hits


def _stream_hits(
    blocks: np.ndarray, wanted: Sequence[int], max_ways: int
) -> Dict[int, np.ndarray]:
    """Cumulative hits by ways of one stream at every wanted level.

    ``wanted`` is a sorted list of ``log2(num_sets)`` levels.  One LSD
    radix chain visits them all: each level drops its in-set repeats
    (:func:`_compress`), is scanned if wanted, and only its survivors
    are partitioned on the next set-index bit.  A finer set's substream
    is a subsequence of its coarser set's, so a dropped repeat stays
    next to its run start, a distance-1 hit, at every finer level.
    Returns ``{level: hits}``.
    """
    n = len(blocks)
    hi = wanted[-1]
    dense, pocc, distinct = _dense_ids_and_prev(blocks)
    # Radix keys: set bits in the low ``hi`` positions (so every swept
    # level partitions on a key bit) with the dense block id above them
    # (so key equality is block equality, for run compression).
    key64 = (dense << hi) | (blocks & ((1 << hi) - 1))
    compact = distinct << hi <= (1 << 31) - 1 and n <= (1 << 31) - 1
    dtype = np.int32 if compact else np.int64
    cur = key64.astype(dtype, copy=False)
    cols = np.arange(n, dtype=dtype)
    link = np.where(pocc < 0, cols, pocc).astype(dtype, copy=False)
    del dense, pocc, key64
    wanted_set = set(wanted)
    hits: Dict[int, np.ndarray] = {}
    for level in range(hi + 1):
        cur, link = _compress(cur, link)
        m = len(cur)
        if level in wanted_set:
            hits[level] = _level_hits(link, cols[:m], n, max_ways)
        if level < hi:
            cur, link = _partition_bit(cur, link, level, cols[:m])
    return hits


@dataclass(frozen=True)
class MissPlane:
    """Exact LRU miss counts over a whole ``(set count x ways)`` plane.

    Attributes:
        references: Stream length (the miss count denominator).
        max_ways: Largest associativity the plane answers.
        hits: ``{num_sets: hits}`` where ``hits[a]`` counts the
            references whose set-relative stack distance is at most
            ``a`` (``a = 0..max_ways``): the hit count of an ``a``-way
            LRU cache with ``num_sets`` sets.
    """

    references: int
    max_ways: int
    hits: Mapping[int, np.ndarray]

    @property
    def set_counts(self) -> Tuple[int, ...]:
        return tuple(sorted(self.hits))

    def misses(self, num_sets: int, ways: int) -> int:
        """Exact miss count of a ``num_sets x ways`` LRU cache."""
        if num_sets not in self.hits:
            raise ConfigurationError(
                f"plane does not cover {num_sets} sets "
                f"(covered: {list(self.set_counts)})"
            )
        if not 1 <= ways <= self.max_ways:
            raise ConfigurationError(
                f"plane covers 1..{self.max_ways} ways, asked for {ways}"
            )
        return self.references - int(self.hits[num_sets][ways])
