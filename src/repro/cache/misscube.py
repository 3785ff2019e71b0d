"""Single-pass (block size × set count × ways) miss-cube engine.

The repo grew the design-space axes one PR at a time: the set-count axis
(one LSD radix chain per stream, :mod:`~repro.cache.fastsim`), then the
``(sets × ways)`` plane (stack distances over the same chain,
:mod:`~repro.cache.stackdist`).  The block-size axis completes the cube:
block sizes are powers of two like set counts, so one pass over a single
byte-address stream answers **every** ``(B, S, A)`` geometry at once.

How the block axis folds into the existing machinery:

* *Blocks are shifts.*  A ``2B``-word block index is the ``B``-word
  block index shifted right by one, so the per-block-size streams are
  all views of one address stream (:func:`~repro.cache.fastsim.
  addresses_to_blocks` hoisted into the engine).
* *Per-block radix chains, one scan per level.*  Set-index bits live
  in a different bit window of the address for every block size
  (``[log2(B), log2(B) + log2(S))``), and windows at different offsets
  do not nest — a single refinement chain cannot serve two block sizes.
  So each block size runs its own O(n) chain, and each harvested
  ``(block size, level)`` slice is histogrammed as soon as it is
  harvested, by :mod:`~repro.cache.stackdist`'s bounded backward scan:
  with ``b_i = i - p_i`` the window back to the previous reference of
  the same block and ``f_j = next_j - j`` the forward gap of each
  position, the stack distance clipped at ``W + 1`` is
  ``min(W + 1, 1 + #{o in [1, b_i) : f_{i-o} > o})``.  Offsets ``1..K``
  are ``K`` shifted compares over the whole level; the few windows
  longer than ``K + 1`` that still hold fewer than ``W`` distinct blocks
  finish in a blocked gather scan.  The queries that scan one position
  have pairwise distinct blocks, each inside the later ones' windows,
  and a query stops at ``W`` distinct blocks, so at most ``W`` queries
  scan any position and a level costs ``O((K + W) n)``: the cost grows
  with ``max_ways``, not with ``log n``.
* *Whole-stream run compression.*  An adjacent repeat of the same block
  maps to the same set at *every* set count of that block size and its
  stack distance is exactly 1 everywhere, so it is dropped once, before
  the radix chain (about 40 % of an instruction stream), and added back
  as a hit at every ``ways >= 1`` per level.  The chain goes on
  compressing: each level drops the repeats its grouping makes
  adjacent, which stay distance-1 hits at every finer level, and
  carries only its survivors on.

Exactness is enforced two ways: tests against the dict-LRU and the
step-by-step ``Cache`` oracles in ``tests/cache/oracles.py``, on random
streams and on the real suite stream over the whole paper grid; and a
fatal cross-check of every ``A = 1`` base against the independent
:func:`~repro.cache.fastsim.direct_mapped_miss_sweep` in the chunked driver
(:mod:`~repro.cache.cubepart`), which every session build goes through
(:meth:`~repro.core.measurement.SuiteMeasurement.warm_miss_cube`, which
keeps each block size's :class:`~repro.cache.stackdist.MissPlane`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.fastsim import addresses_to_blocks
from repro.cache.geometry import checked_block_words, checked_levels, geometry_error
from repro.cache.stackdist import MissPlane, _stream_hits
from repro.errors import ConfigurationError
from repro.utils.units import is_power_of_two, log2_int

__all__ = [
    "MissCube",
    "ShiftedStreams",
    "miss_cube",
    "miss_cube_from_addresses",
    "capacity_set_counts",
]

SetCounts = Union[Sequence[int], Mapping[int, Sequence[int]]]


def capacity_set_counts(
    block_words: Sequence[int],
    capacity_words: int,
    context: Optional[str] = None,
) -> Dict[int, List[int]]:
    """Per-block-size set counts covering every geometry up to a capacity.

    For each block size ``B``, every power-of-two set count from 1 to
    ``capacity_words // B`` — i.e. every direct-mapped size up to the
    capacity, and every ``(size, ways)`` split of those capacities as
    well (``size / ways`` sets).
    """
    blocks = checked_block_words(block_words, context=context)
    if not is_power_of_two(capacity_words):
        raise geometry_error(
            f"cube capacity must be a power of two: {capacity_words}", context
        )
    if capacity_words < blocks[-1]:
        raise geometry_error(
            f"cube capacity of {capacity_words} words cannot hold a "
            f"{blocks[-1]}-word block",
            context,
        )
    return {
        B: [1 << k for k in range(log2_int(capacity_words // B) + 1)]
        for B in blocks
    }


@dataclass(frozen=True)
class MissCube:
    """Exact LRU miss counts over a ``(block size × sets × ways)`` cube.

    Attributes:
        references: ``{block_words: stream length}`` — the miss-count
            denominator per block size (block sizes may have different
            stream lengths: instruction fetch runs collapse to fewer
            references at larger blocks).
        max_ways: Largest associativity the cube answers.
        hits: ``{block_words: {num_sets: hits}}`` cumulative hit counts
            by ways (the :class:`~repro.cache.stackdist.MissPlane` layout
            per block size).
    """

    references: Mapping[int, int]
    max_ways: int
    hits: Mapping[int, Mapping[int, np.ndarray]]

    @property
    def block_words(self) -> Tuple[int, ...]:
        return tuple(sorted(self.hits))

    def _checked_block(self, block_words: int) -> int:
        if block_words not in self.hits:
            raise ConfigurationError(
                f"cube does not cover {block_words}-word blocks "
                f"(covered: {list(self.block_words)})"
            )
        return int(block_words)

    def set_counts(self, block_words: int) -> Tuple[int, ...]:
        """Set counts covered at one block size."""
        return tuple(sorted(self.hits[self._checked_block(block_words)]))

    def plane(self, block_words: int) -> MissPlane:
        """One block size's ``(sets × ways)`` plane."""
        block = self._checked_block(block_words)
        return MissPlane(
            references=self.references[block],
            max_ways=self.max_ways,
            hits=self.hits[block],
        )

    def misses(self, block_words: int, num_sets: int, ways: int) -> int:
        """Exact miss count of one ``(B, S, A)`` geometry."""
        return self.plane(block_words).misses(num_sets, ways)

    def check_base(
        self, block_words: int, axis: Mapping[int, int], label: str
    ) -> None:
        """Fail unless the ``A = 1`` base equals a direct-mapped sweep.

        ``axis`` is :func:`~repro.cache.fastsim.direct_mapped_miss_sweep`
        over the same stream.  Both claim to be exact, by two unrelated
        algorithms (stack distances vs. adjacent-tag comparison), so a
        disagreement means one of them is wrong: a fatal ``RuntimeError``
        naming ``label``, never a warning.
        """
        for num_sets, expected in axis.items():
            got = self.misses(block_words, num_sets, 1)
            if got != expected:
                raise RuntimeError(
                    f"{label}: cube A=1 base disagrees with the "
                    f"direct-mapped sweep at B={block_words}, "
                    f"{num_sets} sets ({got} != {expected})"
                )


class ShiftedStreams(Mapping):
    """Lazy ``{block_words: block index stream}`` views of one address stream.

    Block-size doubling is a right-shift of the shared byte-address
    stream, so nothing needs materializing up front: each block size's
    stream is derived on access and lives only as long as the caller
    holds it.  Consumers that walk block sizes one at a time — the cube
    engine does — therefore hold one shifted stream at a time instead of
    one per block size, which is what lets a memory-mapped address
    bundle flow through :func:`miss_cube_from_addresses` without the
    eager per-block copies piling up.
    """

    def __init__(
        self, addresses: np.ndarray, block_words: Sequence[int]
    ) -> None:
        self._addresses = addresses
        self._blocks = checked_block_words(block_words)

    def __getitem__(self, block_words: int) -> np.ndarray:
        if block_words not in self._blocks:
            raise KeyError(block_words)
        return addresses_to_blocks(self._addresses, block_words)

    def __iter__(self) -> Iterator[int]:
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)


def _normalized_set_counts(
    blocks: Tuple[int, ...], set_counts: SetCounts
) -> Dict[int, Sequence[int]]:
    if isinstance(set_counts, Mapping):
        unknown = set(set_counts) - set(blocks)
        if unknown:
            raise ConfigurationError(
                f"set counts given for uncovered block sizes: {sorted(unknown)}"
            )
        return {B: set_counts.get(B, ()) for B in blocks}
    return {B: set_counts for B in blocks}


def miss_cube(
    streams: Mapping[int, np.ndarray], set_counts: SetCounts, max_ways: int
) -> MissCube:
    """The whole miss cube over per-block-size reference streams.

    Args:
        streams: ``{block_words: block index sequence}``.  Streams for
            different block sizes may differ in length (e.g. run-collapsed
            instruction streams); when they are pure shift views of one
            address stream, use :func:`miss_cube_from_addresses`.
        set_counts: Either one set-count sequence applied to every block
            size, or ``{block_words: set counts}`` (typically
            :func:`capacity_set_counts`).
        max_ways: Largest associativity to answer.

    One engine pass: each block size runs its own O(n) radix chain (set
    windows at different bit offsets cannot share one refinement), and
    each harvested ``(block size, level)`` slice is scanned and
    histogrammed into its hit curve before the chain moves on.
    """
    if max_ways < 1:
        raise ConfigurationError(f"max_ways must be at least 1, got {max_ways}")
    max_ways = int(max_ways)
    blocks_covered = checked_block_words(list(streams))
    per_block = _normalized_set_counts(blocks_covered, set_counts)
    references: Dict[int, int] = {}
    hits: Dict[int, Dict[int, np.ndarray]] = {}
    for B in blocks_covered:
        stream = np.asarray(streams[B], dtype=np.int64)
        references[B] = len(stream)
        by_sets = checked_levels(per_block[B])
        hits[B] = {}
        if not by_sets:
            continue
        if len(stream) == 0:
            for num_sets in by_sets:
                hits[B][num_sets] = np.zeros(max_ways + 1, dtype=np.int64)
            continue
        # Whole-stream run compression: an adjacent repeat of the same
        # block has stack distance exactly 1 at every set count of this
        # block size (nothing intervenes in its set) and leaves every
        # LRU stack untouched, so it is dropped once for all levels.
        keep = np.empty(len(stream), dtype=bool)
        keep[0] = True
        np.not_equal(stream[1:], stream[:-1], out=keep[1:])
        deduped = stream[keep]
        removed = len(stream) - len(deduped)
        # Drop the (possibly lazily shifted) source before the next
        # block size: with ShiftedStreams inputs this caps the engine at
        # one materialized full-length stream at a time.
        del stream, keep
        level_hits = _stream_hits(deduped, sorted(by_sets.values()), max_ways)
        for num_sets, level in by_sets.items():
            curve = level_hits[level]
            curve[1:] += removed
            hits[B][num_sets] = curve
    return MissCube(references=references, max_ways=max_ways, hits=hits)


def miss_cube_from_addresses(
    addresses: np.ndarray,
    block_words: Sequence[int],
    set_counts: SetCounts,
    max_ways: int,
) -> MissCube:
    """The miss cube of one byte-address stream at several block sizes.

    ``addresses_to_blocks`` hoisted into the engine: block-size doubling
    is one right-shift of the shared address stream, so the whole cube
    comes from a single pass over one stream.  ``addresses`` may be a
    memory-mapped bundle view — the shifted streams are derived lazily
    (:class:`ShiftedStreams`), one block size at a time, so nothing ever
    copies the whole stream per block size.
    """
    return miss_cube(
        ShiftedStreams(addresses, block_words), set_counts, max_ways
    )
