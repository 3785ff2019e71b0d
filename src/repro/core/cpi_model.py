"""CPI assembly (Section 3).

For a configuration with ``b`` branch and ``l`` load delay slots:

    CPI = 1                              (single-issue base)
        + m_I * p                        (L1-I miss stalls, from the
                                          b-slot translated stream — so
                                          code-expansion misses included)
        + m_D * p                        (L1-D miss stalls)
        + dCPI_branch(b, scheme)         (squashed slots / BTB penalty)
        + dCPI_load(l, scheme)           (unhidden load delay cycles)

Everything is measured, not assumed: miss counts come from exact
simulation of the multiprogrammed streams, the branch component from the
translated traces' squash accounting (static) or the simulated BTB, the
load component from the dynamic-weighted epsilon histograms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BranchScheme, LoadScheme, PenaltyMode, SystemConfig
from repro.core.measurement import SuiteMeasurement
from repro.errors import ConfigurationError

__all__ = ["CpiBreakdown", "CpiModel"]


@dataclass(frozen=True)
class CpiBreakdown:
    """CPI components for one design point."""

    base: float
    icache: float
    dcache: float
    branch: float
    load: float

    @property
    def total(self) -> float:
        return self.base + self.icache + self.dcache + self.branch + self.load


class CpiModel:
    """Computes CPI breakdowns against one measurement session."""

    def __init__(self, measurement: SuiteMeasurement) -> None:
        self.measurement = measurement

    def _penalty_cycles(self, config: SystemConfig, cycle_time_ns: float) -> int:
        if config.penalty_mode is PenaltyMode.NANOSECONDS and cycle_time_ns <= 0:
            raise ConfigurationError(
                "a nanosecond penalty needs the cycle time; pass cycle_time_ns"
            )
        return config.penalty_cycles(cycle_time_ns)

    def icache_cpi(self, config: SystemConfig, cycle_time_ns: float = 0.0) -> float:
        """L1-I stall cycles per instruction."""
        misses = self.measurement.misses(
            "I", config.block_words, config.icache_kw, slots=config.branch_slots
        )
        penalty = self._penalty_cycles(config, cycle_time_ns)
        return misses * penalty / self.measurement.canonical_instructions

    def dcache_cpi(self, config: SystemConfig, cycle_time_ns: float = 0.0) -> float:
        """L1-D stall cycles per instruction."""
        misses = self.measurement.misses("D", config.block_words, config.dcache_kw)
        penalty = self._penalty_cycles(config, cycle_time_ns)
        return misses * penalty / self.measurement.canonical_instructions

    def branch_cpi(self, config: SystemConfig) -> float:
        """Branch-delay cycles per instruction for the configured scheme."""
        slots = config.branch_slots
        if slots == 0 and config.branch_scheme is BranchScheme.STATIC:
            return 0.0
        if config.branch_scheme is BranchScheme.STATIC:
            return self.measurement.branch_stats(slots).additional_cpi
        return self.measurement.btb_stats.additional_cpi(
            slots, self.measurement.cti_fraction
        )

    def load_cpi(self, config: SystemConfig) -> float:
        """Load-delay cycles per instruction for the configured scheme."""
        scheme = "static" if config.load_scheme is LoadScheme.STATIC else "dynamic"
        return self.measurement.load_slack.cpi_increase(scheme, config.load_slots)

    def breakdown(self, config: SystemConfig, cycle_time_ns: float = 0.0) -> CpiBreakdown:
        """Full CPI decomposition for one design point.

        ``cycle_time_ns`` is required only when the configuration's
        penalty is expressed in nanoseconds (Figure 5's mode).
        """
        return CpiBreakdown(
            base=1.0,
            icache=self.icache_cpi(config, cycle_time_ns),
            dcache=self.dcache_cpi(config, cycle_time_ns),
            branch=self.branch_cpi(config),
            load=self.load_cpi(config),
        )

    def cpi(self, config: SystemConfig, cycle_time_ns: float = 0.0) -> float:
        """Total CPI (the weighted-harmonic-mean suite aggregate)."""
        return self.breakdown(config, cycle_time_ns).total
