"""Exact vectorized miss counting for direct-mapped caches.

The paper's L1 caches are direct-mapped, which admits an O(n log n)
closed-form miss count: a reference misses exactly when the previous
reference that mapped to the same set carried a different tag (or there was
none).  Stable-sorting the reference sequence by set index brings each
set's references together in time order, after which the comparison is a
single vectorized pass.  The per-reference mask lets ``ext_l2`` simulate a
second-level cache on exactly the stream the L1 filters through; its
equivalence to the step-by-step :class:`~repro.cache.cache.Cache` is
enforced by property-based tests.

For whole size-axis sweeps, the power-of-two set counts *nest*: the set
index of a ``2^k``-set cache is the low ``k`` bits of the block index, so
every swept geometry shares one grouping refined bit by bit.
:func:`direct_mapped_miss_sweep` exploits this to produce exact miss
counts for every size in a single pass over the reference stream.  The
miss cube (:mod:`~repro.cache.misscube`) answers every production query;
this sweep is the independent algorithm every cube build checks its
``A = 1`` base against.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.cache.geometry import checked_block_words, checked_levels
from repro.errors import ConfigurationError
from repro.utils.units import WORD_BYTES, is_power_of_two, log2_int

__all__ = [
    "addresses_to_blocks",
    "direct_mapped_miss_mask",
    "direct_mapped_misses",
    "direct_mapped_miss_sweep",
]


def addresses_to_blocks(addresses: np.ndarray, block_words: int) -> np.ndarray:
    """Reduce byte addresses to cache-block indices.

    Consecutive references to the same block are *not* collapsed here —
    collapsing is only valid for sequential instruction runs (see
    :meth:`~repro.sched.refstream.InstructionStream.cache_block_sequence`);
    data streams must keep every reference because an intervening
    conflicting reference can evict the block.
    """
    (block_words,) = checked_block_words((block_words,))
    shift = log2_int(block_words * WORD_BYTES)
    return np.asarray(addresses, dtype=np.int64) >> shift


def direct_mapped_miss_mask(
    block_sequence: np.ndarray, num_sets: int
) -> np.ndarray:
    """Exact per-reference miss mask of a direct-mapped cache.

    The identity: sort references stably by set; within one set's
    subsequence (still in time order), a reference misses iff it is the
    set's first reference or its tag differs from the previous one.
    Returning the mask (in original reference order) lets a second-level
    cache be simulated on exactly the stream the L1 filters through.
    """
    if not is_power_of_two(num_sets):
        raise ConfigurationError(f"set count must be a power of two: {num_sets}")
    blocks = np.asarray(block_sequence, dtype=np.int64)
    n = len(blocks)
    if n == 0:
        return np.empty(0, dtype=bool)
    set_index = blocks & (num_sets - 1)
    tags = blocks >> log2_int(num_sets)
    order = np.argsort(set_index, kind="stable")
    sorted_sets = set_index[order]
    sorted_tags = tags[order]
    first_of_set = np.empty(n, dtype=bool)
    first_of_set[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=first_of_set[1:])
    tag_changed = np.empty(n, dtype=bool)
    tag_changed[0] = True
    np.not_equal(sorted_tags[1:], sorted_tags[:-1], out=tag_changed[1:])
    miss_sorted = first_of_set | tag_changed
    miss = np.empty(n, dtype=bool)
    miss[order] = miss_sorted
    return miss


def direct_mapped_misses(block_sequence: np.ndarray, num_sets: int) -> int:
    """Exact miss count of a direct-mapped cache over a block sequence.

    Args:
        block_sequence: Cache-block indices in reference order.
        num_sets: Number of cache sets (= blocks in the cache).
    """
    blocks = np.asarray(block_sequence, dtype=np.int64)
    if len(blocks) == 0:
        if not is_power_of_two(num_sets):
            raise ConfigurationError(f"set count must be a power of two: {num_sets}")
        return 0
    return int(direct_mapped_miss_mask(blocks, num_sets).sum())


def _stable_split(cur: np.ndarray, level: int) -> np.ndarray:
    """Stably partition every level-``level`` segment by one index bit.

    ``cur`` holds block indices grouped into contiguous per-set segments
    (one per ``2**level``-set-cache set), each segment in time order.
    The segments need no bookkeeping arrays: they are exactly the maximal
    runs of equal low-``level`` bits.  (Inductively: the coarse argsort
    makes equal keys adjacent, and a split keeps each child contiguous
    while adjacent children of *different* parents still differ in their
    low bits, so runs never merge across segment boundaries.)

    Splitting every segment on bit ``level`` — zeros first, ones after,
    both in original order — refines the grouping to the next level's
    sets while preserving time order within each new segment.  All O(n)
    vector ops, no sort.
    """
    n = len(cur)
    low = cur & ((1 << level) - 1)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(low[1:], low[:-1], out=is_start[1:])
    seg_id = np.cumsum(is_start) - 1
    seg_starts = np.flatnonzero(is_start)
    bit = (cur >> level) & 1
    # ones[i] = number of set bits strictly before position i.
    ones = np.empty(n + 1, dtype=np.int64)
    ones[0] = 0
    np.cumsum(bit, out=ones[1:])
    ones_at_start = ones[seg_starts]
    seg_ends = np.append(seg_starts[1:], n)
    ones_total_seg = ones[seg_ends] - ones_at_start
    zeros_total_seg = (seg_ends - seg_starts) - ones_total_seg
    start = seg_starts[seg_id]
    ones_before = ones[:-1] - ones_at_start[seg_id]
    zeros_before = (np.arange(n, dtype=np.int64) - start) - ones_before
    new_pos = start + np.where(
        bit.astype(bool), zeros_total_seg[seg_id] + ones_before, zeros_before
    )
    out_cur = np.empty_like(cur)
    out_cur[new_pos] = cur
    return out_cur


def _sweep_levels(blocks: np.ndarray, levels: Sequence[int]) -> Dict[int, int]:
    """Single-pass miss harvest at every requested ``log2(num_sets)`` level.

    The nesting argument: a ``2^k``-set cache indexes with the low ``k``
    bits of the block index, so the set partition at level ``k+1`` refines
    the one at level ``k`` by exactly one bit.  Starting from one stable
    grouping at the coarsest swept level (level 0, a single set, is the
    stream itself; deeper levels cost one stable argsort keyed by the low
    index bits), each refinement is a stable in-segment split that keeps
    every set's reference substream in time order.  Within such a
    substream a reference hits iff its immediate predecessor is the
    *same block* (same set and same tag together are just block
    equality), so every level's exact miss count falls out of one
    vectorized adjacent comparison per level.  Segment boundaries need
    no special casing: adjacent elements in different segments live in
    different sets, so their blocks differ.
    """
    wanted = set(levels)
    lo, hi = min(wanted), max(wanted)
    if lo == 0:
        cur = blocks
    else:
        cur = blocks[np.argsort(blocks & ((1 << lo) - 1), kind="stable")]
    counts: Dict[int, int] = {}
    for level in range(lo, hi + 1):
        if level > lo:
            cur = _stable_split(cur, level - 1)
        if level in wanted:
            counts[level] = len(cur) - int(np.count_nonzero(cur[1:] == cur[:-1]))
    return counts


def direct_mapped_miss_sweep(
    block_sequence: np.ndarray, set_counts: Sequence[int]
) -> Dict[int, int]:
    """Exact miss counts for several cache sizes in one pass.

    Returns ``{num_sets: misses}``.  All sizes are swept together: one
    coarse stable grouping plus one O(n) stable bit-split per doubling of
    the set count, instead of an independent O(n log n) simulation per
    size.  Results are bit-identical to :func:`direct_mapped_misses` per
    size (the property-based suite enforces this against both the
    per-size path and the step-by-step :class:`~repro.cache.cache.Cache`).
    """
    blocks = np.asarray(block_sequence, dtype=np.int64)
    by_sets = checked_levels(set_counts)
    if not by_sets:
        return {}
    if len(blocks) == 0:
        return {num_sets: 0 for num_sets in by_sets}
    counts = _sweep_levels(blocks, list(by_sets.values()))
    return {num_sets: counts[level] for num_sets, level in by_sets.items()}

