"""System configuration: the design point of one evaluation.

A configuration fixes everything the CPI and cycle-time models need:
cache geometry per side, pipeline depths (= delay slot counts), the miss
penalty, and the branch/load delay hiding schemes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.utils.units import is_power_of_two

__all__ = [
    "BranchScheme",
    "LoadScheme",
    "PenaltyMode",
    "SystemConfig",
    "config_to_params",
]

#: The paper studies depths 0..3.
MAX_DELAY_SLOTS = 3


class BranchScheme(enum.Enum):
    """How branch delay cycles are hidden (Section 3.1)."""

    STATIC = "static"  # delayed branches with optional squashing
    BTB = "btb"  # 256-entry branch-target buffer


class LoadScheme(enum.Enum):
    """How load delay cycles are hidden (Section 3.2)."""

    STATIC = "static"  # within-basic-block compile-time scheduling
    DYNAMIC = "dynamic"  # out-of-order issue limited only by true slack


class PenaltyMode(enum.Enum):
    """Whether the L1 miss penalty is fixed in cycles or in nanoseconds.

    The cache sweeps (Figures 3/4/8/9) fix the penalty in *cycles*; the
    CPI-versus-t_CPU study (Figure 5) fixes it in *nanoseconds*, so the
    cycle cost falls as the clock slows ("CPI decreases as t_CPU increases
    because the miss penalty in cycles decreases").
    """

    CYCLES = "cycles"
    NANOSECONDS = "nanoseconds"


@dataclass(frozen=True)
class SystemConfig:
    """One design point.

    Attributes:
        icache_kw / dcache_kw: L1-I / L1-D sizes in kilowords.
        block_words: Line size (both sides; the paper uses one per study).
        branch_slots: Branch delay slots b = L1-I pipeline depth.
        load_slots: Load delay slots l = L1-D pipeline depth.
        penalty: Miss penalty — cycles (PenaltyMode.CYCLES) or ns.
        penalty_mode: Interpretation of ``penalty``.
        branch_scheme / load_scheme: Delay-hiding schemes.
    """

    icache_kw: float = 8.0
    dcache_kw: float = 8.0
    block_words: int = 4
    branch_slots: int = 2
    load_slots: int = 2
    penalty: float = 10.0
    penalty_mode: PenaltyMode = PenaltyMode.CYCLES
    branch_scheme: BranchScheme = BranchScheme.STATIC
    load_scheme: LoadScheme = LoadScheme.STATIC

    def __post_init__(self) -> None:
        for label, size in (("icache_kw", self.icache_kw), ("dcache_kw", self.dcache_kw)):
            if size <= 0 or not is_power_of_two(int(size * 1024)):
                raise ConfigurationError(
                    f"{label} must be a positive power-of-two word count, got {size} KW"
                )
        if not is_power_of_two(self.block_words):
            raise ConfigurationError(f"block size must be a power of two: {self.block_words}")
        for label, slots in (
            ("branch_slots", self.branch_slots),
            ("load_slots", self.load_slots),
        ):
            if not 0 <= slots <= MAX_DELAY_SLOTS:
                raise ConfigurationError(
                    f"{label} must be in [0, {MAX_DELAY_SLOTS}], got {slots}"
                )
        if self.penalty <= 0:
            raise ConfigurationError("miss penalty must be positive")

    @property
    def combined_l1_kw(self) -> float:
        """Total L1 capacity (the x-axis of Figures 12/13)."""
        return self.icache_kw + self.dcache_kw

    def penalty_cycles(self, cycle_time_ns: float) -> int:
        """Miss penalty in cycles at a given clock period."""
        if self.penalty_mode is PenaltyMode.CYCLES:
            return int(round(self.penalty))
        if cycle_time_ns <= 0:
            raise ConfigurationError("cycle time must be positive")
        return max(1, int(-(-self.penalty // cycle_time_ns)))  # ceil


_FIELD_NAMES = tuple(field.name for field in fields(SystemConfig))


def config_to_params(config: SystemConfig) -> Dict[str, Any]:
    """A SystemConfig as plain JSON scalars (enums to their values).

    The one rendering behind design-point artifact keys, journal records
    and service query digests.  It equals ``dataclasses.asdict`` with
    enums replaced by their values, key for key (same order, same
    types), but reads the fields shallowly instead of deep-copying them.
    """
    params: Dict[str, Any] = {}
    for name in _FIELD_NAMES:
        value = getattr(config, name)
        params[name] = value.value if isinstance(value, enum.Enum) else value
    return params
