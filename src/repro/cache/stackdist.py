"""Single-pass all-associativity LRU simulation via stack distances.

The classic Mattson inclusion result: under LRU, a reference hits an
``S``-set, ``A``-way cache iff its *stack distance* within its set — one
plus the number of distinct blocks referenced in that set since the
previous reference to the same block — is at most ``A``.  Distances are a
property of the (stream, set count) pair alone, so histogramming them
answers **every** associativity at once: ``misses(S, A)`` for the whole
``(size x ways)`` plane falls out of one pass per swept set count.

The pass itself is vectorized.  Identities that make it possible:

* *Last-position compression.*  Within one set's reference substream (in
  time order, positions ``0..m-1``), let ``p_i`` be the position of the
  previous reference to the same block (``-1`` if none).  A position
  ``j`` in the window ``(p_i, i)`` contributes a *distinct* block iff it
  is the window's first reference to that block, i.e. iff ``p_j <= p_i``
  — so the stack distance needs no per-block bookkeeping, only the
  ``p`` array.
* *Rank counting.*  Every ``j <= p_i`` satisfies ``p_j < j <= p_i``, so
  ``#{j < i : p_j <= p_i} = (p_i + 1) + #window-firsts`` and the distance
  collapses to ``d_i = #{j < i : p_j <= p_i} - p_i``: an order statistic
  ("how many earlier entries have a previous-position at most mine")
  computed for all references of all sets together by
  :func:`_rank_counts`.  Cross-set pairs cancel exactly in ``C - p``
  because a window never crosses a set boundary (sets are contiguous
  segments) while every ``j <= p_i`` counts regardless of its set.
* *Run compression.*  A reference whose in-set predecessor is the same
  block has stack distance exactly 1 and leaves the LRU stack unchanged
  (it touches the top).  Dropping such runs before the expensive rank
  count preserves every other distance and typically shrinks real
  streams by 2-5x per level; the dropped count is added back as hits at
  every ``ways >= 1``.
* *First references never enter the rank count.*  A block's first
  reference within its set is its first reference ever (the set index is
  a function of the block), and its ``p = -1`` makes its value the level
  minimum — every later element of the level counts it unconditionally.
  So firsts leave the expensive rank count entirely: their contribution
  is a per-level running count of firsts (a cumsum), and with them gone
  the remaining values are globally unique (no tie-breaking needed).
* *Level concatenation.*  All swept set counts share one rank count: lay
  the per-level ``p`` arrays end to end with cumulative position offsets.
  For an element of level ``k`` every element of an earlier level counts
  (smaller position *and* smaller previous-position), adding the same
  constant ``base_k`` to both ``C`` and ``p`` — so the offsets cancel in
  ``d = C - p`` and one merge tree serves the whole plane.

Set counts are swept with the PR 3 nesting: the set index of a
``2^(k+1)``-set cache refines the ``2^k``-set index by one bit, so the
grouped substreams are produced by an LSD radix pass — one O(n) stable
partition per level — with no sort at all.  (A global bit partition keeps
every set contiguous and in time order; it permutes the *order of sets*
relative to :func:`~repro.cache.fastsim._stable_split`, which no miss
count depends on.)

These are the miss cube's internals (:mod:`~repro.cache.misscube` is
the only caller); property-based tests pin the cube to a dict-LRU oracle
and the step-by-step :class:`~repro.cache.cache.Cache`, and every cube
build checks its ``A = 1`` base against the independent
:func:`~repro.cache.fastsim.direct_mapped_miss_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.units import is_power_of_two

__all__ = ["MissPlane"]

# Packed-merge base width: nodes up to this width are seeded by shifted
# whole-array comparisons (contiguous, no sort) before merging starts.
_SHIFT_BASE_WIDTH = 16


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


def _rank_counts(rank: np.ndarray) -> np.ndarray:
    """``C[i] = #{j < i : rank[j] < rank[i]}`` for a permutation ``rank``.

    A bottom-up merge tree over positions with the whole element state —
    ``(rank << 2f) | (position << f) | count`` — packed into one int64
    per element (``f`` bits per field).  Each level re-sorts rows of
    doubled width in place: ranks occupy the top bits, so ``np.sort``
    orders each positional node by rank while the position and running
    count ride along for free — the tree needs *no* scattered memory
    traffic at all.  When a node forms, every element from its right
    (positional) half counts the left-half elements preceding it in rank
    order — exactly the ``j < i`` (position) with ``rank[j] < rank[i]``
    pairs whose lowest common tree node this is — via one row cumsum of
    the half-membership bit.  Counts accumulate in the low field, which
    never overflows into the position field (``count <= n - 1``) and
    never reorders two elements (ranks are unique and above it).

    Nodes of width <= ``_SHIFT_BASE_WIDTH`` are seeded before any sort
    by shifted whole-array comparisons in position order: offset ``o``
    contributes ``rank[i - o] < rank[i]`` for every in-node pair at that
    offset — contiguous compares, no scattered traffic at all.

    Sentinels pad positions n..P-1 with ranks above every real rank, so
    a sentinel never precedes a real element in rank order and never
    contributes to a real count.  Three packed fields need
    ``3 * ceil(log2 n) <= 63``; beyond that (n > 2^21) the value-range
    splitter :func:`_rank_counts_split` takes over, cutting the problem
    into packable pieces with one cumsum per cut.
    """
    n = len(rank)
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    nbits = int(n - 1).bit_length()
    if 3 * nbits > 63:
        return _rank_counts_split(rank)
    padded = 1 << nbits
    field = padded - 1
    ranks = np.empty(padded, dtype=np.int32)
    ranks[:n] = rank
    if padded > n:
        # Sentinels: rank = position = padded index, count ignored.
        ranks[n:] = np.arange(n, padded, dtype=np.int32)
    base_width = min(_SHIFT_BASE_WIDTH, padded)
    base_rows = ranks.reshape(-1, base_width)
    counts = np.zeros((padded // base_width, base_width), dtype=np.int32)
    for offset in range(1, base_width):
        counts[:, offset:] += base_rows[:, :-offset] < base_rows[:, offset:]
    packed = ranks.astype(np.int64)
    packed <<= 2 * nbits
    pos64 = np.arange(padded, dtype=np.int64)
    np.left_shift(pos64, nbits, out=pos64)
    packed |= pos64
    np.bitwise_or(packed, counts.ravel(), out=packed)
    colsp1 = np.arange(1, padded + 1, dtype=np.int32)
    half = np.empty(padded, dtype=np.int32)
    before = np.empty(padded, dtype=np.int32)
    level = base_width.bit_length()
    while (1 << level) <= padded:
        width = 1 << level
        rows = packed.reshape(-1, width)
        rows.sort(axis=1)
        half2 = half.reshape(-1, width)
        before2 = before.reshape(-1, width)
        # Bit ``level - 1`` of the position field: 1 for the right half.
        np.right_shift(rows, nbits + level - 1, out=half2, casting="unsafe")
        half2 &= 1
        np.cumsum(half2, axis=1, out=before2)  # inclusive right-half count
        # Left-half elements before slot k in rank order, for right-half
        # elements: k - (inclusive - 1) = (k + 1) - inclusive.
        np.subtract(colsp1[:width], before2, out=before2)
        before2 *= half2
        rows += before2
        level += 1
    out = np.empty(padded, dtype=np.int64)
    out[(packed >> nbits) & field] = packed & field
    return out[:n]


def _rank_counts_split(rank: np.ndarray) -> np.ndarray:
    """Rank counts for streams too long to pack three int64 fields.

    Splits on the *value* midpoint instead of walking position bits: for
    a cut at ``mid``, every pair with the smaller value below the cut and
    the larger value above it is counted by one cumsum (left-half
    elements positionally before each right-half element), and the two
    halves — each positionally stable, with disjoint value ranges — are
    independent subproblems.  Ranks are unique, so each cut at least
    halves the value span and every piece reaches the packed merge tree
    of :func:`_rank_counts` within ``log2(n) - 21`` cuts, keeping the
    whole computation on the no-scatter fast path: O(n) work per cut
    plus the packed tree per piece, against the ``log2(n)`` full-stream
    scatter levels of a position-bit tree.
    """
    n = len(rank)
    out = np.zeros(n, dtype=np.int64)
    idtype = np.int32 if n <= (1 << 31) - 1 else np.int64
    span = 1 << int(n - 1).bit_length()
    stack = [(rank.astype(idtype, copy=False), np.arange(n, dtype=idtype), 0, span)]
    while stack:
        vals, idx, lo, hi = stack.pop()
        m = len(vals)
        if m < 2:
            continue
        if 3 * int(m - 1).bit_length() <= 63:
            # Packable piece: compact the surviving values to a dense
            # local permutation (order is preserved, so counts are the
            # piece's exact pair counts).
            order = np.argsort(vals, kind="stable")
            local = np.empty(m, dtype=np.int64)
            local[order] = np.arange(m, dtype=np.int64)
            out[idx] += _rank_counts(local)
            continue
        mid = (lo + hi) >> 1
        right = vals >= mid
        left = ~right
        # Every left-half element positionally before a right-half one
        # has both the smaller position and the smaller value.
        out[idx[right]] += np.cumsum(left, dtype=np.int64)[right]
        stack.append((vals[right], idx[right], mid, hi))
        stack.append((vals[left], idx[left], lo, mid))
    return out


def _partition_bit(
    cur: np.ndarray,
    idx: np.ndarray,
    out_cur: np.ndarray,
    out_idx: np.ndarray,
    level: int,
    bit: np.ndarray,
    ones: np.ndarray,
    pos: np.ndarray,
    cols: np.ndarray,
) -> None:
    """Stably partition the whole stream by bit ``level`` of ``cur``.

    Zeros first, ones after, original order within each half.  Any two
    adjacent elements of different sets already differ in their low
    ``level`` bits, so a *global* stable partition keeps every refined
    set contiguous and in time order — no per-segment bookkeeping.
    """
    np.bitwise_and(np.right_shift(cur, level, out=ones), 1, out=ones)
    np.not_equal(ones, 0, out=bit)
    np.cumsum(bit, out=ones)
    total_ones = int(ones[-1])
    ones -= bit  # ones strictly before
    np.subtract(cols, ones, out=pos)
    np.add(ones, len(cur) - total_ones, out=ones)
    np.copyto(pos, ones, where=bit)  # destination slot of every element
    out_cur[pos] = cur
    out_idx[pos] = idx


class _LevelSlice:
    """Per-level harvest: non-first previous-positions plus bookkeeping.

    ``prev``/``firsts_before`` are parallel arrays over the level's
    *non-first* survivors only; ``compressed`` is the full survivor
    count (firsts included — the level's position-coordinate range),
    ``num_firsts`` the first-reference count and ``removed`` the in-set
    repeats dropped by run compression (stack distance exactly 1).
    ``seg_starts`` (compressed positions where a new set's segment
    begins, harvested only for slices past the packed limit) lets
    :func:`_split_slice` cut the slice at set boundaries.
    """

    __slots__ = (
        "level",
        "prev",
        "firsts_before",
        "compressed",
        "num_firsts",
        "removed",
        "seg_starts",
    )

    def __init__(
        self,
        level: int,
        prev: np.ndarray,
        firsts_before: np.ndarray,
        compressed: int,
        num_firsts: int,
        removed: int,
        seg_starts: Optional[np.ndarray] = None,
    ) -> None:
        self.level = level
        self.prev = prev
        self.firsts_before = firsts_before
        self.compressed = compressed
        self.num_firsts = num_firsts
        self.removed = removed
        self.seg_starts = seg_starts


def _harvest_level(
    cur: np.ndarray,
    idx: np.ndarray,
    pocc: np.ndarray,
    gmap: np.ndarray,
    keep: np.ndarray,
    cpos: np.ndarray,
    level: int,
) -> _LevelSlice:
    """Compress one level's grouped stream and extract ``p`` per survivor.

    ``cur``/``idx`` hold the grouped stream (contiguous per-set segments,
    time order within).  Adjacent equal blocks are in-set repeats of
    stack distance 1; they are dropped and counted separately.  For a
    survivor, the previous occurrence of its block (``pocc``, a time
    index shared by all levels) maps through ``gmap`` to the compressed
    position of that occurrence's *run start* — the most recent survivor
    of the same block — which is exactly its compressed-coordinates
    previous position.  First references (no previous occurrence — a
    block's first in-set reference is its first reference ever) are
    split out: only their running count is kept, not their positions.
    """
    n = len(cur)
    keep[0] = True
    np.not_equal(cur[1:], cur[:-1], out=keep[1:])
    np.cumsum(keep, out=cpos)
    cpos -= 1  # grouped position -> compressed position of its run start
    gmap[idx] = cpos
    cidx = idx[keep]
    prev_time = pocc[cidx]
    has_prev = prev_time >= 0
    prev = gmap[prev_time[has_prev]]
    firsts_before = np.cumsum(~has_prev, dtype=np.int32)[has_prev]
    compressed = len(cidx)
    seg_starts = None
    if level > 0 and len(prev) > _PACKED_LIMIT:
        # Oversized slice: record where each set's segment starts (the
        # key's low ``level`` bits are the set index) so the rank count
        # can be cut at set boundaries instead of spilling into the
        # slow unpacked path.
        sets = cur[keep] & ((1 << level) - 1)
        seg_starts = np.flatnonzero(sets[1:] != sets[:-1]) + 1
        seg_starts = np.concatenate((np.zeros(1, dtype=seg_starts.dtype), seg_starts))
    return _LevelSlice(
        level,
        prev,
        firsts_before,
        compressed,
        compressed - len(prev),
        n - compressed,
        seg_starts,
    )


def _stream_slices(
    blocks: np.ndarray, wanted: Sequence[int]
) -> Dict[int, _LevelSlice]:
    """Harvest one stream's compressed slices at every wanted level.

    ``wanted`` is a sorted list of ``log2(num_sets)`` levels.  One LSD
    radix chain visits them all: the stream is stably partitioned one
    set-index bit at a time, and each wanted level is compressed and
    harvested in passing.  Returns ``{level: slice}``; the slices are
    self-contained (positions are level-local), so slices from
    *different streams* — other set-count levels, or other block sizes
    entirely — can share one rank count via :func:`_concatenated_hits`.
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
    idx = np.arange(n, dtype=dtype)
    out_cur = np.empty(n, dtype=dtype)
    out_idx = np.empty(n, dtype=dtype)
    pocc = pocc.astype(dtype, copy=False)
    gmap = np.empty(n, dtype=dtype)
    bit = np.empty(n, dtype=bool)
    ones = np.empty(n, dtype=dtype)
    pos = np.empty(n, dtype=dtype)
    cols = np.arange(n, dtype=dtype)
    wanted_set = set(wanted)
    slices: Dict[int, _LevelSlice] = {}
    for level in range(hi + 1):
        if level in wanted_set:
            slices[level] = _harvest_level(cur, idx, pocc, gmap, bit, ones, level)
        if level < hi:
            _partition_bit(cur, idx, out_cur, out_idx, level, bit, ones, pos, cols)
            cur, out_cur = out_cur, cur
            idx, out_idx = out_idx, idx
    return slices


#: Largest concatenation the packed merge tree of :func:`_rank_counts`
#: accepts (three ``ceil(log2 n)``-bit fields in one int64).  Beyond it
#: the concatenation is chunked at slice — and, within oversized
#: slices, at set-segment — boundaries to stay packed; the independence
#: argument below makes any such grouping exact, so chunking is purely
#: a speed choice.
_PACKED_LIMIT = 1 << 21


def _split_slice(s: _LevelSlice, limit: int) -> List[_LevelSlice]:
    """Cut an oversized slice at set-segment boundaries.

    A non-first element's previous position lies in the *same* set
    segment as the element itself (everything between them in the
    grouped layout shares its set), so slicing the element array
    wherever a new segment starts yields self-contained pseudo-slices:
    positions rebase by the group's first segment start, and the firsts
    running count rebases by the firsts before that start (``start - a``
    — of the ``start`` survivors before it, ``a`` are the non-firsts
    already emitted).  The pieces rejoin :func:`_concatenated_hits` as
    independent slices whose histograms sum to the original's; run
    removals stay with the caller.  A single segment larger than
    ``limit`` stays whole — :func:`_rank_counts_split` handles it.
    """
    segs = s.seg_starts
    if segs is None or len(segs) < 2 or len(s.prev) <= limit:
        return [s]
    element_seg = np.searchsorted(segs, s.prev, side="right") - 1
    counts = np.bincount(element_seg, minlength=len(segs))
    group_lo: List[int] = [0]
    acc = 0
    for k, c in enumerate(counts):
        if acc and acc + c > limit:
            group_lo.append(k)
            acc = 0
        acc += int(c)
    if len(group_lo) == 1:
        return [s]
    bounds = group_lo + [len(segs)]
    cuts = np.searchsorted(element_seg, bounds, side="left")
    pieces: List[_LevelSlice] = []
    for g in range(len(group_lo)):
        a, b = int(cuts[g]), int(cuts[g + 1])
        start = int(segs[bounds[g]])
        end = int(segs[bounds[g + 1]]) if bounds[g + 1] < len(segs) else s.compressed
        pieces.append(
            _LevelSlice(
                s.level,
                s.prev[a:b] - start,
                s.firsts_before[a:b] - (start - a),
                end - start,
                (end - start) - (b - a),
                0,
            )
        )
    return pieces


def _concatenated_hits(
    slices: Sequence[_LevelSlice], max_ways: int
) -> List[np.ndarray]:
    """Shared rank counts over every slice's compressed stream.

    Slices are laid end to end and share a rank count per chunk; chunks
    are cut at slice boundaries — oversized slices are first cut at
    set-segment boundaries by :func:`_split_slice` — so each chunk
    stays within :data:`_PACKED_LIMIT` and on the packed (no-scatter)
    merge tree whenever the stream's structure allows.  Returns the
    cumulative hit counts per slice, in input order, with each slice's
    run-compression removals added back at every ``ways >= 1``.
    """
    limit = _PACKED_LIMIT
    pieces: List[Tuple[int, _LevelSlice]] = []
    for ordinal, s in enumerate(slices):
        for piece in _split_slice(s, limit):
            pieces.append((ordinal, piece))
    histograms = np.zeros((len(slices), max_ways + 2), dtype=np.int64)
    chunk: List[Tuple[int, _LevelSlice]] = []
    chunk_len = 0

    def flush() -> None:
        for (ordinal, _), hist in zip(chunk, _chunk_histograms([p for _, p in chunk], max_ways)):
            histograms[ordinal] += hist

    for ordinal, piece in pieces:
        m = len(piece.prev)
        if chunk and chunk_len + m > limit:
            flush()
            chunk, chunk_len = [], 0
        chunk.append((ordinal, piece))
        chunk_len += m
    if chunk:
        flush()
    hits_list: List[np.ndarray] = []
    for ordinal, s in enumerate(slices):
        hits = np.cumsum(histograms[ordinal])[: max_ways + 1]
        hits[1:] += s.removed  # dropped in-set repeats: distance exactly 1
        hits_list.append(hits)
    return hits_list


def _chunk_histograms(
    slices: Sequence[_LevelSlice], max_ways: int
) -> np.ndarray:
    """One shared rank count over every slice's compressed stream.

    The per-slice ``p`` arrays (non-firsts only) are laid end to end
    with cumulative position offsets ``base_k`` (full survivor counts,
    firsts included, so ``p`` keeps its positional meaning).  For an
    element of slice ``k``, every non-first of an earlier slice has both
    a smaller position and a smaller offset value, so the tree counts it
    automatically, adding a constant that cancels in ``d = C - p``.
    The argument only needs each slice's positions to be level-local and
    its non-first values unique, so the slices may come from different
    set-count levels of one stream *or from different streams entirely*
    (the miss cube concatenates every (block size, level) pair this
    way).  Firsts are cheaper than the tree: a first of an earlier slice
    always counts (one constant per slice), and a first of the *same*
    slice counts exactly when it is positionally earlier (the
    per-element ``firsts_before`` cumsum from the harvest).  With firsts
    out, the remaining values are globally unique — the counting-sort
    rank needs no tie-breaking.  Returns the raw per-slice distance
    histograms (``max_ways + 2`` bins, distances clipped at
    ``max_ways + 1``), in input order; the caller turns them into
    cumulative hits and restores run-compression removals — histograms
    are additive, so pieces of a split slice simply sum.
    """
    total = sum(len(s.prev) for s in slices)
    span_total = sum(s.compressed for s in slices)
    vdtype = np.int32 if span_total < (1 << 31) - 1 else np.int64
    # vals = (base + p) + 1 over non-firsts of every level.
    vals = np.empty(total, dtype=vdtype)
    extra = np.empty(total, dtype=vdtype)
    level_of = np.empty(total, dtype=np.int64)
    base = 0
    firsts_so_far = 0
    fill = 0
    for ordinal, s in enumerate(slices):
        m = len(s.prev)
        span = slice(fill, fill + m)
        np.add(s.prev, base + 1, out=vals[span], casting="unsafe")
        # Firsts counted without the tree: all of the earlier levels',
        # plus the positionally-earlier ones of this level.
        np.add(s.firsts_before, firsts_so_far, out=extra[span], casting="unsafe")
        level_of[span] = ordinal
        base += s.compressed
        firsts_so_far += s.num_firsts
        fill += m
    counts = np.bincount(vals, minlength=base)
    offsets = np.cumsum(counts)
    offsets -= counts
    if vdtype is np.int32:
        offsets = offsets.astype(np.int32, copy=False)
    rank = offsets[vals]
    distance = _rank_counts(rank)
    distance += 1
    distance += extra
    distance -= vals
    np.minimum(distance, max_ways + 1, out=distance)
    hist_key = level_of
    hist_key *= max_ways + 2
    hist_key += distance
    return np.bincount(
        hist_key, minlength=len(slices) * (max_ways + 2)
    ).reshape(len(slices), max_ways + 2)


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

    def capacity_misses(self, size_blocks: int, ways: int) -> int:
        """Miss count at fixed capacity: ``size_blocks / ways`` sets."""
        if ways < 1 or size_blocks % ways != 0:
            raise ConfigurationError(
                f"associativity {ways} does not divide {size_blocks} blocks"
            )
        num_sets = size_blocks // ways
        if not is_power_of_two(num_sets):
            raise ConfigurationError(
                f"{size_blocks} blocks / {ways} ways is not a "
                "power-of-two set count"
            )
        return self.misses(num_sets, ways)
