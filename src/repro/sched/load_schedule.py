"""Load-use slack (epsilon) analysis — Section 3.2 of the paper.

For every load the paper defines:

* ``c`` — instructions between the last write of the load's address
  register and the load (how much earlier the load *could* issue);
* ``d`` — instructions between the load and the first use of its result;
* ``epsilon = c + d`` — the total scheduling slack available for hiding
  load delay cycles.

Figure 6 plots the *dynamic* distribution of epsilon (what out-of-order
hardware could exploit); Figure 7 plots the distribution after truncating
``c`` and ``d`` at basic-block boundaries (what a compiler's within-block
static scheduling can exploit, with perfect memory disambiguation).
Table 5 converts both into delay cycles per load and CPI increase.

The analysis here is static per load site — using the same dependence
queries as the scheduler — and weighted by each block's dynamic execution
count, which is exactly how a trace-driven measurement aggregates.  Each
static load's two epsilons are lowered once per program
(:func:`~repro.program.dependence.load_epsilons`, stored on
:class:`~repro.trace.compiled.CompiledProgram`), so weighting them by a
trace is two bincounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.program.dependence import EPSILON_CAP
from repro.trace.compiled import CompiledProgram

__all__ = ["EPSILON_CAP", "LoadSlackAnalysis", "analyze_load_slack"]


@dataclass
class LoadSlackAnalysis:
    """Dynamic-weighted epsilon histograms and the Table 5 conversions.

    Attributes:
        dynamic_histogram: epsilon -> dynamic load count, with ``c``
            measured against the actual address-register writer (stable
            bases like ``$gp``/``$sp`` are written so rarely that their
            ``c`` saturates the cap) — Figure 6.
        static_histogram: epsilon with ``c`` and ``d`` truncated at basic
            block boundaries — Figure 7.
        loads_per_instruction: dynamic load frequency (the paper's 0.25).
    """

    dynamic_histogram: Dict[int, int]
    static_histogram: Dict[int, int]
    loads_per_instruction: float

    def _delay_cycles(self, histogram: Dict[int, int], delay_slots: int) -> float:
        """Average unhidden delay cycles per load: E[max(0, l - epsilon)]."""
        total = sum(histogram.values())
        if total == 0:
            return 0.0
        unhidden = sum(
            count * max(0, delay_slots - eps) for eps, count in histogram.items()
        )
        return unhidden / total

    def delay_cycles_per_load(self, scheme: str, delay_slots: int) -> float:
        """Unhidden delay cycles per load (Table 5, 'Delay cycles per load').

        ``scheme`` is ``"static"`` (within-block compile-time scheduling)
        or ``"dynamic"`` (out-of-order issue limited only by true slack).
        """
        if delay_slots < 0:
            raise ScheduleError("delay slots must be >= 0")
        histogram = self._histogram_for(scheme)
        return self._delay_cycles(histogram, delay_slots)

    def cpi_increase(self, scheme: str, delay_slots: int) -> float:
        """CPI increase from load delays (Table 5, 'CPI' columns)."""
        return self.loads_per_instruction * self.delay_cycles_per_load(
            scheme, delay_slots
        )

    def _histogram_for(self, scheme: str) -> Dict[int, int]:
        if scheme == "static":
            return self.static_histogram
        if scheme == "dynamic":
            return self.dynamic_histogram
        raise ScheduleError(f"unknown load scheduling scheme {scheme!r}")

    def fraction_at_least(self, scheme: str, epsilon: int) -> float:
        """Fraction of dynamic loads with slack >= ``epsilon``.

        The paper highlights that over 80 % of loads have dynamic
        epsilon >= 3.
        """
        histogram = self._histogram_for(scheme)
        total = sum(histogram.values())
        if total == 0:
            return 0.0
        return sum(c for e, c in histogram.items() if e >= epsilon) / total


def analyze_load_slack(
    compiled: CompiledProgram, block_counts: Optional[np.ndarray] = None
) -> LoadSlackAnalysis:
    """Measure the epsilon distributions of a program.

    Args:
        compiled: The lowered program.
        block_counts: Dynamic execution count per block id (from a trace).
            When omitted, every block is weighted equally (purely static
            view) — fine for tests, but experiments should always pass the
            trace weights.

    Histogram keys appear in the order their first load occurs (block,
    then instruction order; unexecuted blocks skipped), the order a walk
    over the instructions would insert them.
    """
    if block_counts is None:
        block_counts = np.ones(len(compiled), dtype=np.int64)
    block_counts = np.asarray(block_counts)
    if len(block_counts) != len(compiled):
        raise ScheduleError("block_counts must have one entry per block")

    weights = block_counts[compiled.load_blocks]
    total_loads = int(weights.sum())
    total_instructions = int(block_counts @ compiled.lengths.astype(np.int64))
    live = weights != 0
    loads_per_instruction = total_loads / total_instructions if total_instructions else 0.0
    return LoadSlackAnalysis(
        dynamic_histogram=_weighted_histogram(
            compiled.load_eps_dynamic[live], weights[live]
        ),
        static_histogram=_weighted_histogram(
            compiled.load_eps_static[live], weights[live]
        ),
        loads_per_instruction=loads_per_instruction,
    )


def _weighted_histogram(epsilons: np.ndarray, weights: np.ndarray) -> Dict[int, int]:
    """epsilon -> summed weight, keyed in order of first occurrence.

    The float64 sums of integer weights are exact below 2**53.
    """
    if len(epsilons) == 0:
        return {}
    sums = np.bincount(epsilons, weights=weights)
    values, first = np.unique(epsilons, return_index=True)
    return {int(eps): int(sums[eps]) for eps in values[np.argsort(first)]}
