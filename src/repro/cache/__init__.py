"""Cache simulation: the reproduction's ``cacheSIM``.

* :mod:`~repro.cache.misscube` — the engine behind every miss query: one
  pass over a byte-address stream answers the whole
  (block size x set count x ways) cube as a
  :class:`~repro.cache.misscube.MissCube`, from Mattson stack distances
  (:mod:`~repro.cache.stackdist`) counted by a bounded backward scan at
  every block size and set count;
* :mod:`~repro.cache.cubepart` — the one driver every session build
  goes through: runs the same engine over each block size's stream in
  chunks, with each finest set's most recent blocks carried in front
  of the next chunk (exact by LRU inclusion), plus a chunked A=1
  cross-check per block size, as tasks on an executor (worker
  processes when it is parallel);
* :mod:`~repro.cache.fastsim` — an exact, vectorized miss counter for
  direct-mapped caches: the per-reference miss mask an L2 study filters
  through, and the independent single-pass size sweep every cube build
  cross-checks its direct-mapped base against.

:mod:`~repro.cache.refill` models the paper's miss penalties (a 2-cycle
startup plus the block transfer at the memory system's refill rate).
The step-by-step caches these engines are tested against live under
``tests/cache/oracles.py``.
"""

from repro.cache.refill import RefillModel, PAPER_PENALTIES
from repro.cache.fastsim import (
    direct_mapped_miss_mask,
    direct_mapped_misses,
    direct_mapped_miss_sweep,
    addresses_to_blocks,
)
from repro.cache.stackdist import MissPlane
from repro.cache.misscube import (
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

__all__ = [
    "RefillModel",
    "PAPER_PENALTIES",
    "direct_mapped_miss_mask",
    "direct_mapped_misses",
    "direct_mapped_miss_sweep",
    "addresses_to_blocks",
    "MissPlane",
    "MissCube",
    "ShiftedStreams",
    "capacity_set_counts",
    "miss_cube",
    "miss_cube_from_addresses",
    "partitioned_miss_cube",
    "partitioned_miss_cube_from_addresses",
]
