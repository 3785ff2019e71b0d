"""Extension — leakage-driven divergence of energy- and time-optimal caches.

The paper optimizes TPI alone; its GaAs DCFL technology leaks per chip
whether or not the array is accessed.  This study scores the Figure 12
symmetric grid on the :mod:`repro.physical` energy axis at three leakage
scales and asks where the *energy*-optimal geometry sits relative to the
*TPI*-optimal one (which is independent of the energy coefficients):

* at low leakage, EPI is refill-dominated — small caches miss too often
  and pay the next-level access energy, so the energy optimum sits at a
  sizeable cache, near the TPI optimum;
* as leakage grows, the per-chip static power (integrated over TPI)
  overtakes the refill term and drags the energy optimum toward fewer
  chips — the nanometer-CMOS effect Bai/Kim/Mudge describe, reproduced
  here on the MCM chip-count axis.

The TPI-optimal point never moves (leakage does not change time), so the
gap between the two optima is purely leakage-driven.
"""

from __future__ import annotations

from dataclasses import replace
from repro.core import SuiteMeasurement, SystemConfig
from repro.core.optimizer import DesignOptimizer, point_order_key
from repro.experiments.common import (
    DEFAULT_BLOCK_WORDS,
    DEFAULT_PENALTY,
    ExperimentResult,
)
from repro.physical import DEFAULT_PHYSICAL
from repro.utils.tables import render_table

__all__ = ["run", "LEAKAGE_SCALES"]

#: Multipliers on the calibrated static power — emulating technologies
#: whose leakage share of total energy differs (the Bai/Kim/Mudge axis).
LEAKAGE_SCALES = (0.25, 1.0, 4.0)


def _geometry(point) -> str:
    config = point.config
    return (
        f"{config.icache_kw:g}I/{config.dcache_kw:g}D KW "
        f"b={config.branch_slots} l={config.load_slots}"
    )


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    base = SystemConfig(
        block_words=DEFAULT_BLOCK_WORDS, penalty=DEFAULT_PENALTY
    )
    rows = []
    data = {}
    for scale in LEAKAGE_SCALES:
        phys = replace(DEFAULT_PHYSICAL, leakage_scale=scale)
        optimizer = DesignOptimizer(measurement, phys=phys)
        grid = optimizer.symmetric_grid(base)
        # One scored pass yields the EPI winner, the TPI winner, and the
        # whole (TPI, EPI, area) frontier for this leakage scale.
        selection = optimizer.select(grid, objective="epi")
        epi_best = selection.best
        tpi_best = min(selection.points, key=point_order_key)
        static = optimizer.physical.breakdown(
            epi_best.config, epi_best.tpi_ns
        ).static_fraction
        rows.append(
            [
                f"{scale:g}x",
                _geometry(tpi_best),
                round(tpi_best.epi_nj, 2),
                _geometry(epi_best),
                round(epi_best.tpi_ns, 2),
                round(epi_best.epi_nj, 2),
                f"{100.0 * static:.0f}%",
                len(selection.frontier),
            ]
        )
        data[f"{scale:g}"] = {
            "tpi_best_kw": tpi_best.config.combined_l1_kw,
            "tpi_best_tpi_ns": tpi_best.tpi_ns,
            "tpi_best_epi_nj": tpi_best.epi_nj,
            "epi_best_kw": epi_best.config.combined_l1_kw,
            "epi_best_tpi_ns": epi_best.tpi_ns,
            "epi_best_epi_nj": epi_best.epi_nj,
            "epi_best_static_fraction": static,
            "frontier_size": len(selection.frontier),
        }
    low, high = data[f"{LEAKAGE_SCALES[0]:g}"], data[f"{LEAKAGE_SCALES[-1]:g}"]
    data["divergence"] = {
        "tpi_best_kw": low["tpi_best_kw"],
        "epi_best_kw_low_leakage": low["epi_best_kw"],
        "epi_best_kw_high_leakage": high["epi_best_kw"],
        "diverges": high["epi_best_kw"] < low["tpi_best_kw"],
    }
    text = render_table(
        [
            "leakage",
            "TPI-optimal",
            "its EPI (nJ)",
            "EPI-optimal",
            "its TPI (ns)",
            "its EPI (nJ)",
            "static share",
            "frontier",
        ],
        rows,
        title=(
            "Extension: energy- vs time-optimal geometry per leakage scale "
            "(symmetric grid, B=4 W, p=10)"
        ),
    )
    return ExperimentResult(
        experiment_id="ext_energy",
        title="Leakage-driven divergence of energy- and TPI-optimal caches",
        text=text,
        data=data,
        paper_notes=(
            "Outside the paper's scope (it optimizes time alone).  The "
            "TPI-optimal geometry is leakage-invariant; the energy-optimal "
            "geometry shrinks as static power scales up, diverging from it "
            "— the Bai/Kim/Mudge leakage effect on the MCM chip-count axis."
        ),
    )
