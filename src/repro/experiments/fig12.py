"""Figure 12 — TPI versus combined L1 size for matched (b, l) pairs.

The paper's headline figure: at p = 10, TPI curves for b = l = 0..3 over
combined L1 sizes, showing (1) every depth has a best size, (2) depths
2-3 dominate, and (3) dynamic load scheduling would buy a further step
unless it stretches the cycle time more than ~10 %.
"""

from __future__ import annotations

import dataclasses
from repro.core import DesignOptimizer, SuiteMeasurement, SystemConfig
from repro.core.config import LoadScheme
from repro.experiments.common import (
    DEFAULT_BLOCK_WORDS,
    ExperimentResult,
    PAPER_SIZES_KW,
)
from repro.utils.tables import render_series

__all__ = ["run", "tpi_grid", "SLOT_PAIRS"]

SLOT_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3))


def tpi_grid(optimizer: DesignOptimizer, base: SystemConfig):
    """TPI per (b=l, combined size); returns (series, data, best point)."""
    # Sweep the whole grid up front: this builds its planes in one warm
    # and journals the points under a durable run (--run-dir); the
    # per-point evaluate calls below are store hits.
    optimizer.sweep(optimizer.symmetric_grid(base, SLOT_PAIRS, PAPER_SIZES_KW))
    series = {}
    data = {}
    for b, l in SLOT_PAIRS:
        values = []
        for size in PAPER_SIZES_KW:
            config = dataclasses.replace(
                base, branch_slots=b, load_slots=l, icache_kw=size, dcache_kw=size
            )
            values.append(optimizer.evaluate(config).tpi_ns)
        series[f"b=l={b}"] = values
        data[(b, l)] = dict(zip([2 * s for s in PAPER_SIZES_KW], values))
    best = optimizer.best(optimizer.symmetric_grid(base, SLOT_PAIRS, PAPER_SIZES_KW))
    return series, data, best


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    optimizer = DesignOptimizer(measurement)
    base = SystemConfig(penalty=10, block_words=DEFAULT_BLOCK_WORDS)
    series, data, best = tpi_grid(optimizer, base)
    dynamic_best = optimizer.best(
        optimizer.symmetric_grid(
            dataclasses.replace(base, load_scheme=LoadScheme.DYNAMIC),
            SLOT_PAIRS,
            PAPER_SIZES_KW,
        )
    )
    text = render_series(
        "combined L1 (KW)",
        [2 * s for s in PAPER_SIZES_KW],
        series,
        title="Figure 12: TPI (ns) vs combined L1 size, p=10, B=4W",
        precision=2,
    )
    summary = (
        f"optimum: b={best.config.branch_slots}, l={best.config.load_slots}, "
        f"S={best.config.combined_l1_kw:g} KW -> TPI {best.tpi_ns:.2f} ns "
        f"(CPI {best.cpi:.2f}, t_CPU {best.cycle_time_ns:.2f} ns)\n"
        f"dynamic loads: b={dynamic_best.config.branch_slots}, "
        f"l={dynamic_best.config.load_slots}, "
        f"S={dynamic_best.config.combined_l1_kw:g} KW -> "
        f"TPI {dynamic_best.tpi_ns:.2f} ns"
    )
    return ExperimentResult(
        experiment_id="fig12",
        title="TPI vs combined L1 size (p=10)",
        text=text + "\n" + summary,
        data={
            "tpi": data,
            "best": {
                "b": best.config.branch_slots,
                "l": best.config.load_slots,
                "combined_kw": best.config.combined_l1_kw,
                "tpi_ns": best.tpi_ns,
                "cpi": best.cpi,
                "t_cpu_ns": best.cycle_time_ns,
            },
            "best_dynamic": {
                "b": dynamic_best.config.branch_slots,
                "l": dynamic_best.config.load_slots,
                "combined_kw": dynamic_best.config.combined_l1_kw,
                "tpi_ns": dynamic_best.tpi_ns,
            },
        },
        paper_notes=(
            "Paper: optimum b=l=3 at S=64 KW, t_CPU=3.5 ns, TPI=6.8 ns; "
            "dynamic loads reach 6.2 ns (unless they cost >10 % t_CPU)."
        ),
    )
