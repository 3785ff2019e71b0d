"""Cache simulation: the reproduction's ``cacheSIM``.

* :class:`~repro.cache.cache.Cache` — a general set-associative cache with
  pluggable replacement, used by the API, the examples, and as the
  step-by-step oracle for the vectorized paths' correctness tests;
* :mod:`~repro.cache.misscube` — the engine behind every miss query: one
  pass over a byte-address stream answers the whole
  (block size x set count x ways) cube as a
  :class:`~repro.cache.misscube.MissCube`, from Mattson stack distances
  (:mod:`~repro.cache.stackdist`) sharing a single rank count across
  every block size and set count;
* :mod:`~repro.cache.cubepart` — the set-partitioned out-of-core and
  parallel driver over the same engine: partitions a byte-address
  stream by coarse set index, reduces partitions independently (in
  worker processes when an executor is supplied), and merges counts
  bit-identical to the serial one-shot cube;
* :mod:`~repro.cache.fastsim` — an exact, vectorized miss counter for
  direct-mapped caches: the per-reference miss mask an L2 study filters
  through, and the independent single-pass size sweep every cube build
  cross-checks its direct-mapped base against.

:mod:`~repro.cache.refill` models the paper's miss penalties (a 2-cycle
startup plus the block transfer at the memory system's refill rate), and
:class:`~repro.cache.hierarchy.CacheHierarchy` composes a split L1 over a
constant-latency backing store.
"""

from repro.cache.stats import CacheStats
from repro.cache.replacement import LRU, FIFO, RandomReplacement, ReplacementPolicy
from repro.cache.cache import Cache
from repro.cache.refill import RefillModel, PAPER_PENALTIES
from repro.cache.fastsim import (
    direct_mapped_miss_mask,
    direct_mapped_misses,
    direct_mapped_miss_sweep,
    addresses_to_blocks,
)
from repro.cache.stackdist import MissPlane
from repro.cache.misscube import (
    MISS_CUBE_VERSION,
    MissCube,
    ShiftedStreams,
    capacity_set_counts,
    miss_cube,
    miss_cube_from_addresses,
)
from repro.cache.cubepart import (
    partitioned_miss_cube,
    partitioned_miss_cube_from_addresses,
)
from repro.cache.hierarchy import CacheHierarchy

__all__ = [
    "CacheStats",
    "ReplacementPolicy",
    "LRU",
    "FIFO",
    "RandomReplacement",
    "Cache",
    "RefillModel",
    "PAPER_PENALTIES",
    "direct_mapped_miss_mask",
    "direct_mapped_misses",
    "direct_mapped_miss_sweep",
    "addresses_to_blocks",
    "MissPlane",
    "MISS_CUBE_VERSION",
    "MissCube",
    "ShiftedStreams",
    "capacity_set_counts",
    "miss_cube",
    "miss_cube_from_addresses",
    "partitioned_miss_cube",
    "partitioned_miss_cube_from_addresses",
    "CacheHierarchy",
]
