"""Reference implementations the miss cube is tested against.

The cube (:mod:`repro.cache.misscube`) answers every miss query from
Mattson stack distances and one shared rank count.  These are the slower,
independent algorithms it replaced, kept as oracles:

* :func:`set_associative_misses` — a per-configuration dict LRU, one
  insertion-ordered dict per set (``pop`` + re-insert is an O(1)
  move-to-back), at roughly a million references per second;
* :func:`rank_counts_scatter` — a top-down scatter merge tree computing
  the same order statistic as :func:`repro.cache.stackdist._rank_counts`.
"""

from typing import Dict

import numpy as np

from repro.cache.fastsim import direct_mapped_misses
from repro.errors import ConfigurationError
from repro.utils.units import is_power_of_two

#: References materialized per ``tolist`` batch.  Chunking keeps the
#: Python-object working set bounded (a full ``tolist`` of a
#: multimillion-reference stream allocates one ``int`` object per
#: element up front) without changing the per-reference loop.
_CHUNK_REFERENCES = 1 << 16

#: Scatter-tree node width below which the merge switches to one
#: broadcast all-pairs comparison.
_BASE_WIDTH = 32


def _fully_associative_misses(blocks: np.ndarray, associativity: int) -> int:
    """LRU misses of a single ``associativity``-entry set."""
    if associativity >= len(blocks):
        # The cache can never fill, let alone evict: every miss is a
        # cold miss, so the miss count is the distinct-block count.
        return len(np.unique(blocks))
    lru: Dict[int, bool] = {}
    misses = 0
    for start in range(0, len(blocks), _CHUNK_REFERENCES):
        for block in blocks[start : start + _CHUNK_REFERENCES].tolist():
            if block in lru:
                del lru[block]
                lru[block] = True
            else:
                misses += 1
                if len(lru) >= associativity:
                    del lru[next(iter(lru))]
                lru[block] = True
    return misses


def set_associative_misses(
    block_sequence: np.ndarray, num_sets: int, associativity: int
) -> int:
    """Exact LRU miss count for a ``num_sets`` x ``associativity`` cache.

    Args:
        block_sequence: Cache-block indices in reference order.
        num_sets: Sets (power of two).
        associativity: Ways per set (>= 1).

    ``associativity == 1`` delegates to the vectorized direct-mapped
    path; ``num_sets == 1`` to a single-dict fully-associative loop
    with no set indexing.
    """
    if not is_power_of_two(num_sets):
        raise ConfigurationError(f"set count must be a power of two: {num_sets}")
    if associativity < 1:
        raise ConfigurationError("associativity must be >= 1")
    if associativity == 1:
        return direct_mapped_misses(block_sequence, num_sets)

    blocks = np.asarray(block_sequence, dtype=np.int64)
    if num_sets == 1:
        return _fully_associative_misses(blocks, associativity)
    if associativity >= len(blocks):
        # No set can ever evict (a set holds at most the stream's
        # distinct blocks, each block maps to exactly one set), so the
        # cache is effectively fully associative and never full.
        return len(np.unique(blocks))
    mask = num_sets - 1
    sets: list = [None] * num_sets  # lazily created per-set LRU dicts
    misses = 0
    for start in range(0, len(blocks), _CHUNK_REFERENCES):
        for block in blocks[start : start + _CHUNK_REFERENCES].tolist():
            index = block & mask
            lru = sets[index]
            if lru is None:
                lru = {}
                sets[index] = lru
            if block in lru:
                # Move to most-recently-used position.
                del lru[block]
                lru[block] = True
            else:
                misses += 1
                if len(lru) >= associativity:
                    # Evict the least-recently-used (first-inserted) block.
                    del lru[next(iter(lru))]
                lru[block] = True
    return misses


def rank_counts_scatter(rank: np.ndarray) -> np.ndarray:
    """``C[i] = #{j < i : rank[j] < rank[i]}`` for a permutation ``rank``.

    A top-down merge tree over positions: the root's by-rank order is the
    permutation's inverse (an O(n) scatter, no sort), and each node's
    order splits into its children's by one stable partition on a single
    position bit, counting left-half elements that precede each
    right-half element in rank order.  Nodes of width <= ``_BASE_WIDTH``
    finish with one broadcast all-pairs count instead of more levels.
    Scratch buffers are allocated once and reused across levels.
    """
    n = len(rank)
    nbits = int(n - 1).bit_length()
    padded = 1 << nbits
    dtype = np.int32 if padded <= (1 << 30) else np.int64
    by_rank = np.empty(padded, dtype=dtype)
    by_rank[rank] = np.arange(n, dtype=dtype)
    if padded > n:
        by_rank[n:] = np.arange(n, padded, dtype=dtype)
    counts = np.zeros(padded, dtype=dtype)
    cols = np.arange(padded, dtype=dtype)
    bit = np.empty(padded, dtype=bool)
    ones = np.empty(padded, dtype=dtype)
    scratch = np.empty(padded, dtype=dtype)
    other = np.empty(padded, dtype=dtype)
    level = nbits
    while (1 << level) > _BASE_WIDTH:
        width = 1 << level
        shape = (padded >> level, width)
        rows = by_rank.reshape(shape)
        bit2 = bit.reshape(shape)
        ones2 = ones.reshape(shape)
        pos2 = scratch.reshape(shape)
        np.bitwise_and(np.right_shift(rows, level - 1, out=ones2), 1, out=ones2)
        np.not_equal(ones2, 0, out=bit2)
        np.cumsum(bit2, axis=1, out=ones2)
        ones2 -= bit2  # ones strictly before, per row
        np.subtract(cols[:width], ones2, out=pos2)  # zeros strictly before
        # Right-half elements: left-half elements before them in rank
        # order are exactly their smaller-rank, smaller-position pairs.
        # Positions are unique, so fancy-index accumulation is safe.
        counts[by_rank] += (pos2 * bit2).ravel()
        zeros_total = width - ones2[:, -1:] - bit2[:, -1:]
        np.add(ones2, zeros_total, out=ones2)
        np.copyto(pos2, ones2, where=bit2)  # pos2 is now the new position
        split2 = other.reshape(shape)
        np.put_along_axis(split2, pos2, rows, axis=1)
        by_rank, other = other, by_rank
        level -= 1
    width = 1 << level
    rows = by_rank.reshape(padded >> level, width)
    pairs = rows[:, :, None] > rows[:, None, :]
    pairs &= np.tril(np.ones((width, width), dtype=bool), -1)
    counts[by_rank] += pairs.sum(axis=2, dtype=dtype).ravel()
    return counts[:n].astype(np.int64, copy=False)
