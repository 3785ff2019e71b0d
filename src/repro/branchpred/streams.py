"""Extracting the dynamic CTI stream a BTB sees from an execution trace.

The BTB experiments run on canonical (zero-delay-slot) code: the paper
builds a zero-delay translation for them, which for our noop-free canonical
programs is the identity layout.  Each executed CTI contributes its
instruction address, its outcome, and (when taken) its actual target — the
address of the next executed block.

:func:`cti_stream` extracts the CTIs of a range of trace steps;
:class:`WindowedCtiStream` reads a whole trace's CTIs that way, a window
of steps at a time, so a long trace's CTI stream is never held whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import TraceError
from repro.trace.compiled import BlockKind
from repro.trace.executor import ExecutionTrace

__all__ = ["CtiStream", "WindowedCtiStream", "cti_count", "cti_stream"]


@dataclass
class CtiStream:
    """Parallel arrays describing every executed CTI, in order."""

    pcs: np.ndarray  # byte address of the CTI instruction
    taken: np.ndarray  # bool: control left via the taken edge
    targets: np.ndarray  # byte address of the actual destination block

    def __len__(self) -> int:
        return len(self.pcs)

    def __getitem__(self, key: slice) -> "CtiStream":
        return CtiStream(self.pcs[key], self.taken[key], self.targets[key])

    def with_offset(self, offset: int) -> "CtiStream":
        """Shift all addresses into a distinct address space."""
        return CtiStream(self.pcs + offset, self.taken, self.targets + offset)

    @staticmethod
    def concatenate(streams: Sequence["CtiStream"]) -> "CtiStream":
        """The streams one after another."""
        return CtiStream(
            np.concatenate([s.pcs for s in streams]),
            np.concatenate([s.taken for s in streams]),
            np.concatenate([s.targets for s in streams]),
        )


def cti_stream(
    trace: ExecutionTrace, start: int = 0, stop: Optional[int] = None
) -> CtiStream:
    """Extract the CTI stream of a trace on the canonical layout.

    Covers the CTIs of trace steps ``[start, stop)`` (default: all of
    them); each step reads the step after it for its target, so
    consecutive ranges concatenate to the whole stream.  The final
    executed block is dropped if it ends in a CTI, because its
    destination was never recorded.
    """
    compiled = trace.compiled
    last = max(trace.steps - 1, 0)
    start = min(start, last)
    stop = last if stop is None else min(stop, last)
    if stop <= start:
        empty = np.empty(0, dtype=np.int64)
        return CtiStream(empty, np.empty(0, dtype=bool), empty)
    current = trace.block_ids[start:stop]
    following = trace.block_ids[start + 1 : stop + 1]
    is_cti = compiled.kinds[current] != BlockKind.FALLTHROUGH
    addresses = compiled.canonical_addresses
    pcs = addresses[current] + 4 * (compiled.lengths[current].astype(np.int64) - 1)
    taken = trace.went_taken[start:stop] == 1
    targets = addresses[following]
    return CtiStream(
        pcs=pcs[is_cti], taken=taken[is_cti], targets=targets[is_cti]
    )


def cti_count(trace: ExecutionTrace) -> int:
    """``len(cti_stream(trace))``, from the trace's per-block counts
    rather than a pass over its steps."""
    if trace.steps < 2:
        return 0
    is_cti = trace.compiled.kinds != BlockKind.FALLTHROUGH
    return int(trace.block_counts[is_cti].sum()) - int(is_cti[trace.block_ids[-1]])


class WindowedCtiStream:
    """One trace's CTI stream, extracted ``window_steps`` steps at a time.

    A forward-only sequence: ``len()`` is :func:`cti_count`, and slices
    are taken front to back without gaps, the way
    :func:`~repro.trace.multiprogram.iter_interleaved` takes them.  Each
    slice is a :class:`CtiStream` shifted by ``offset``; between slices
    the object holds at most the rest of the last window it read.
    """

    def __init__(
        self, trace: ExecutionTrace, window_steps: int, offset: int = 0
    ) -> None:
        self._length = cti_count(trace)
        self._windows: Iterator[CtiStream] = (
            cti_stream(trace, start, start + window_steps).with_offset(offset)
            for start in range(0, max(trace.steps - 1, 0), window_steps)
        )
        self._held = cti_stream(trace, 0, 0)
        self._cursor = 0

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, key: slice) -> CtiStream:
        start, stop, _ = key.indices(self._length)
        if start != self._cursor:
            raise TraceError(
                f"a windowed CTI stream is read in order: asked for "
                f"{start}, next is {self._cursor}"
            )
        pieces = [self._held]
        held = len(self._held)
        while held < stop - start:
            window = next(self._windows)
            pieces.append(window)
            held += len(window)
        joined = CtiStream.concatenate(pieces) if len(pieces) > 1 else self._held
        self._held = joined[stop - start :]
        self._cursor = stop
        return joined[: stop - start]
