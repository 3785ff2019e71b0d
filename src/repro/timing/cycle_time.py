"""High-level cycle-time queries — the generator of Table 6.

``cycle_time_ns(size_kw, depth)`` composes the macro-model (cache access
time for the size) with the datapath and the analyzer, returning the
optimized-clocking minimum period.  ``cycle_time_table`` sweeps sizes and
depths to regenerate Table 6 and labels whether the ALU loop or the cache
loop is critical.

Cycle times are memoised per (size, depth, technology, associativity):
a design grid revisits the same few (size, depth) pairs per side at
every other axis value, and each fresh answer is a full ``minTcpu``
binary search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.timing.analyzer import TimingAnalyzer
from repro.timing.datapath import build_cpu_datapath
from repro.timing.sram import cache_access_time_ns
from repro.timing.technology import DEFAULT_TECHNOLOGY, Technology

__all__ = ["CycleTimeResult", "cycle_time_ns", "cycle_time_table", "PAPER_SIZES_KW", "PAPER_DEPTHS"]

#: The size/depth grid of Table 6.
PAPER_SIZES_KW = (1, 2, 4, 8, 16, 32)
PAPER_DEPTHS = (0, 1, 2, 3)

_CRITICAL_TOLERANCE_NS = 5e-3

#: Distinct (size, depth, technology, associativity) cycle times kept;
#: the paper's grid is 24 per technology.
_CYCLE_TIME_MEMO = 1024


@dataclass(frozen=True)
class CycleTimeResult:
    """One Table 6 cell."""

    size_kw: float
    depth: int
    cache_access_ns: float
    cycle_ns: float
    alu_critical: bool


@functools.lru_cache(maxsize=_CYCLE_TIME_MEMO, typed=True)
def cycle_time_ns(
    size_kw: float,
    depth: int,
    tech: Technology = DEFAULT_TECHNOLOGY,
    associativity: int = 1,
) -> float:
    """Minimum ``t_CPU`` for one L1 side of ``size_kw`` at ``depth`` stages."""
    access = cache_access_time_ns(size_kw, tech, associativity=associativity)
    circuit = build_cpu_datapath(access, depth, tech)
    return TimingAnalyzer(circuit).min_cycle_time()


def cycle_time_result(
    size_kw: float, depth: int, tech: Technology = DEFAULT_TECHNOLOGY
) -> CycleTimeResult:
    """Cycle time plus critical-path attribution for one configuration."""
    access = cache_access_time_ns(size_kw, tech)
    cycle = cycle_time_ns(size_kw, depth, tech)
    return CycleTimeResult(
        size_kw=size_kw,
        depth=depth,
        cache_access_ns=access,
        cycle_ns=cycle,
        alu_critical=abs(cycle - tech.alu_loop_ns) <= _CRITICAL_TOLERANCE_NS,
    )


def cycle_time_table(
    sizes_kw: Sequence[float] = PAPER_SIZES_KW,
    depths: Sequence[int] = PAPER_DEPTHS,
    tech: Technology = DEFAULT_TECHNOLOGY,
) -> Dict[Tuple[float, int], CycleTimeResult]:
    """The full Table 6 grid: ``{(size_kw, depth): result}``."""
    return {
        (size, depth): cycle_time_result(size, depth, tech)
        for size in sizes_kw
        for depth in depths
    }
