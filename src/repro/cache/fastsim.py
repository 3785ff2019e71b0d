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
counts for every size in one pass, carrying only each size's misses on
to the next (a hit is a hit at every larger size).  The miss cube
(:mod:`~repro.cache.misscube`) answers every production query; this
sweep, sharing no code with it, is what every cube build checks its
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


def _sweep_levels(blocks: np.ndarray, levels: Sequence[int]) -> Dict[int, int]:
    """Single-pass miss harvest at every requested ``log2(num_sets)`` level.

    Within a set's substream (time order) a reference hits iff its
    predecessor is the same block, so a level's misses are the *run
    starts* of its grouped stream.  Level ``k+1``'s grouping refines
    level ``k``'s by one index bit, and one *global* stable partition on
    that bit produces it: adjacent elements of different sets already
    differ in their low ``k`` bits (so they are different blocks), and
    every refined set stays contiguous and in time order.  A finer set's
    substream is a subsequence of its coarser set's, so a reference that
    hits at level ``k`` hits at every finer level, and dropping it gives
    no other reference a predecessor of another block: only run starts
    go down the chain, and a level's miss count is its length there.
    """
    wanted = set(levels)
    hi = max(wanted)
    counts: Dict[int, int] = {}
    cur = blocks
    for level in range(hi + 1):
        starts = np.empty(len(cur), dtype=bool)
        starts[0] = True
        np.not_equal(cur[1:], cur[:-1], out=starts[1:])
        cur = cur[starts]
        if level in wanted:
            counts[level] = len(cur)
        if level < hi:
            ones = ((cur >> level) & 1).astype(bool)
            cur = np.concatenate((cur[~ones], cur[ones]))
    return counts


def direct_mapped_miss_sweep(
    block_sequence: np.ndarray, set_counts: Sequence[int]
) -> Dict[int, int]:
    """Exact miss counts for several cache sizes in one pass.

    Returns ``{num_sets: misses}``.  All sizes are swept together: one
    pass drops the stream's adjacent repeats, then each doubling of the
    set count is one O(m) stable bit partition of the ``m`` misses of
    the size below it, instead of an independent O(n log n) simulation
    per size.  Results are bit-identical to :func:`direct_mapped_misses`
    per size (the property-based suite enforces this against both the
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

