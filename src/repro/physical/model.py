"""The physical facade: a design point's energy and area, measured.

:class:`PhysicalModel` mirrors :class:`~repro.core.cpi_model.CpiModel`:
it consumes the same measurement session (access and miss counts come
from the exact simulated streams, never from assumed rates) and prices
one :class:`~repro.core.config.SystemConfig` in nanojoules per
instruction and square centimetres.

The EPI decomposition::

    EPI = fetch + data + refill + static          (nJ / instruction)

    fetch  = E_read(I side)  * 1                  (one fetch per instr)
    data   = E_read(D side)  * refs / instr       (measured load+store rate)
    refill = E_refill(block) * (m_I + m_D) / instr  (measured miss counts)
    static = (P_I + P_D) watts * TPI ns           (W x ns = nJ exactly)

The static term is where the energy and performance axes couple: a
bigger cache leaks more power but executes each instruction faster, so
whether it wins on energy depends on the leakage share — the
Bai/Kim/Mudge divergence the ``ext_energy`` study reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only: repro.core imports this module
    from repro.core.config import SystemConfig
    from repro.core.measurement import SuiteMeasurement

from repro.errors import ConfigurationError
from repro.physical.area import system_area_cm2
from repro.physical.energy import read_energy_nj, refill_energy_nj, static_power_w
from repro.physical.technology import DEFAULT_PHYSICAL, PhysicalTechnology
from repro.timing.technology import DEFAULT_TECHNOLOGY, Technology

__all__ = ["PhysicalBreakdown", "PhysicalModel"]


@dataclass(frozen=True)
class PhysicalBreakdown:
    """Energy (per instruction) components and area of one design point."""

    fetch_nj: float
    data_nj: float
    refill_nj: float
    static_nj: float
    #: Total MCM substrate area, cm^2 (:func:`~repro.physical.area.
    #: system_area_cm2`: pure geometry, TPI-independent).
    area_cm2: float

    @property
    def epi_nj(self) -> float:
        """Total energy per instruction, nJ."""
        return self.fetch_nj + self.data_nj + self.refill_nj + self.static_nj

    @property
    def static_fraction(self) -> float:
        """Leakage share of EPI — the axis the ext_energy study sweeps."""
        return self.static_nj / self.epi_nj


class PhysicalModel:
    """Scores configurations on energy and area against one session.

    Args:
        measurement: The session supplying access and miss counts.
        tech: Delay/packaging technology (chip counts, pitch).
        phys: Energy/area coefficients.
    """

    def __init__(
        self,
        measurement: "SuiteMeasurement",
        tech: Technology = DEFAULT_TECHNOLOGY,
        phys: PhysicalTechnology = DEFAULT_PHYSICAL,
    ) -> None:
        self.measurement = measurement
        self.tech = tech
        self.phys = phys

    def breakdown(self, config: SystemConfig, tpi_ns: float) -> PhysicalBreakdown:
        """Full energy + area decomposition for one design point.

        ``tpi_ns`` is the point's already-computed time per instruction
        (the static term integrates leakage power over it).
        """
        if tpi_ns <= 0:
            raise ConfigurationError("TPI must be positive")
        m = self.measurement
        with m.tracer.span(
            "physical.score",
            icache_kw=config.icache_kw,
            dcache_kw=config.dcache_kw,
        ):
            instructions = m.canonical_instructions
            refs_per_instr = m.data_reference_count / instructions
            misses = m.misses(
                "I", config.block_words, config.icache_kw, slots=config.branch_slots
            ) + m.misses("D", config.block_words, config.dcache_kw)
            fetch = read_energy_nj(config.icache_kw, tech=self.tech, phys=self.phys)
            data = (
                read_energy_nj(config.dcache_kw, tech=self.tech, phys=self.phys)
                * refs_per_instr
            )
            refill = (
                refill_energy_nj(config.block_words, phys=self.phys)
                * misses
                / instructions
            )
            static = (
                static_power_w(config.icache_kw, tech=self.tech, phys=self.phys)
                + static_power_w(config.dcache_kw, tech=self.tech, phys=self.phys)
            ) * tpi_ns
            return PhysicalBreakdown(
                fetch_nj=fetch,
                data_nj=data,
                refill_nj=refill,
                static_nj=static,
                area_cm2=system_area_cm2(config, tech=self.tech, phys=self.phys),
            )
