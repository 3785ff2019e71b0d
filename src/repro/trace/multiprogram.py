"""Multiprogrammed trace construction.

The paper drives its cache simulations with *multiprogramming traces*: the
benchmark traces are interleaved with a context-switch quantum, so a cache
sees each process's references in bursts and suffers the attendant
cold/interference misses.  That interference is what keeps the miss rate of
large caches from collapsing to zero and is essential to the shape of
Figures 3, 4, and 8.

This module is deliberately generic: it interleaves any per-benchmark
sequence (data addresses, cache-block runs, CTI records) in round-robin
quanta sized so every benchmark finishes in the same number of switches —
i.e. each benchmark's share of the combined trace equals its share of
total work, matching the paper's execution-time weighting.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.errors import TraceError

__all__ = [
    "multiprogram_quanta",
    "interleave_chunks",
    "iter_interleaved",
    "address_space_offset",
]

def multiprogram_quanta(
    element_counts: Sequence[int], switches: int
) -> List[int]:
    """Per-benchmark chunk sizes for a given number of context switches.

    Each benchmark is divided into ``switches`` equal chunks, so the
    round-robin schedule finishes all benchmarks together regardless of
    their lengths (longer benchmarks simply get bigger quanta, i.e. they
    own a proportionally larger share of CPU time).
    """
    if switches <= 0:
        raise TraceError("number of context switches must be positive")
    return [max(1, -(-count // switches)) for count in element_counts]


def interleave_chunks(
    arrays: Sequence[np.ndarray], chunk_sizes: Sequence[int]
) -> np.ndarray:
    """Round-robin interleave ``arrays`` taking ``chunk_sizes[i]`` at a time.

    Benchmarks that run out simply drop out of the rotation; the output
    contains every input element exactly once, in quantum order.
    """
    if not arrays:
        _check_interleave_args(arrays, chunk_sizes)
        return np.empty(0, dtype=np.int64)
    pieces: List[np.ndarray] = list(iter_interleaved(arrays, chunk_sizes))
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=arrays[0].dtype)


def _check_interleave_args(
    arrays: Sequence[np.ndarray], chunk_sizes: Sequence[int]
) -> None:
    if len(arrays) != len(chunk_sizes):
        raise TraceError("arrays and chunk_sizes must have the same length")
    if any(size <= 0 for size in chunk_sizes):
        raise TraceError("chunk sizes must be positive")


def iter_interleaved(
    arrays: Sequence[np.ndarray], chunk_sizes: Sequence[int]
) -> Iterator[np.ndarray]:
    """The quanta of :func:`interleave_chunks`, one piece at a time.

    Same validation, same round-robin schedule, same piece order:
    concatenating the yielded views reproduces
    ``interleave_chunks(arrays, chunk_sizes)`` bit for bit, while the
    caller — a streaming bundle producer, typically — holds one quantum
    at a time instead of the whole interleaved stream.  A source needs
    only ``len()`` and slicing, and each source's slices are taken front
    to back without gaps, so a source may produce its elements as they
    are asked for (:class:`~repro.branchpred.WindowedCtiStream` does).
    """
    _check_interleave_args(arrays, chunk_sizes)
    cursors = [0] * len(arrays)
    remaining = sum(len(a) for a in arrays)
    while remaining > 0:
        for i, source in enumerate(arrays):
            start = cursors[i]
            if start >= len(source):
                continue
            stop = min(len(source), start + chunk_sizes[i])
            yield source[start:stop]
            cursors[i] = stop
            remaining -= stop - start


def address_space_offset(benchmark_index: int) -> int:
    """Distinct high-bit offset for one benchmark's address space.

    Multiprogrammed processes occupy distinct address spaces; offsetting
    each benchmark's addresses by a distinct high bit pattern means they
    map to the *same* cache indices with *different* tags — exactly the
    interference a physically indexed cache experiences across context
    switches.
    """
    if benchmark_index < 0:
        raise TraceError("benchmark index must be non-negative")
    return (benchmark_index + 1) << 36
