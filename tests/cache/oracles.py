"""Reference implementations the miss cube is tested against.

The cube (:mod:`repro.cache.misscube`) answers every miss query from
Mattson stack distances counted by a bounded backward scan.
:func:`set_associative_misses` is the slower, independent algorithm it
replaced, kept as the oracle: a per-configuration dict LRU, one
insertion-ordered dict per set (``pop`` + re-insert is an O(1)
move-to-back), at roughly a million references per second.
:class:`Cache` is the plainest model of all: one LRU cache simulated a
byte address at a time.
"""

from typing import Dict, List

import numpy as np

from repro.cache.fastsim import direct_mapped_misses
from repro.errors import ConfigurationError
from repro.utils.units import WORD_BYTES, is_power_of_two, log2_int

#: References materialized per ``tolist`` batch.  Chunking keeps the
#: Python-object working set bounded (a full ``tolist`` of a
#: multimillion-reference stream allocates one ``int`` object per
#: element up front) without changing the per-reference loop.
_CHUNK_REFERENCES = 1 << 16


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


class Cache:
    """A set-associative LRU cache, simulated one reference at a time.

    Sizes are in words, as in the paper (``size_words`` and
    ``block_words`` powers of two).  :meth:`access` takes a byte address;
    every miss allocates, evicting the set's least recently used block.
    """

    def __init__(self, size_words: int, block_words: int, associativity: int = 1):
        self.associativity = associativity
        self.num_sets = size_words // (block_words * associativity)
        if not (
            is_power_of_two(block_words)
            and is_power_of_two(self.num_sets)
            and self.num_sets * block_words * associativity == size_words
        ):
            raise ConfigurationError(
                f"no {associativity}-way cache of {size_words} W in "
                f"{block_words} W blocks"
            )
        self._block_shift = log2_int(block_words * WORD_BYTES)
        # Each set's resident blocks, least recently used first.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Reference one byte address; True on a hit."""
        block = address >> self._block_shift
        resident = self._sets[block & (self.num_sets - 1)]
        self.accesses += 1
        if block in resident:
            resident.remove(block)
            resident.append(block)
            return True
        self.misses += 1
        if len(resident) == self.associativity:
            del resident[0]
        resident.append(block)
        return False
