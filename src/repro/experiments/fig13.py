"""Figure 13 — TPI at the low (6-cycle) refill penalty, plus the
asymmetric-split search.

The paper: cheaper refills shrink the optimal cache and pipeline depth
(b = l = 2 at 16 KW combined, TPI 6.61 ns), and an asymmetric design — a
larger, deeper-pipelined L1-I with a smaller L1-D — can edge out the
symmetric optimum (32 KW I / 8 KW D at TPI 6.5 ns), because branch slots
cost less CPI than load slots.
"""

from __future__ import annotations

from repro.core import DesignOptimizer, SuiteMeasurement, SystemConfig
from repro.experiments.common import (
    DEFAULT_BLOCK_WORDS,
    ExperimentResult,
    PAPER_SIZES_KW,
)
from repro.experiments.fig12 import tpi_grid
from repro.utils.tables import render_series

__all__ = ["run"]


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    optimizer = DesignOptimizer(measurement)
    base = SystemConfig(penalty=6, block_words=DEFAULT_BLOCK_WORDS)
    series, data, best = tpi_grid(optimizer, base)
    asym = optimizer.best(
        optimizer.asymmetric_grid(
            base,
            icache_sizes_kw=PAPER_SIZES_KW,
            dcache_sizes_kw=PAPER_SIZES_KW,
            branch_slots=(2, 3),
            load_slots=(2, 3),
        )
    )
    text = render_series(
        "combined L1 (KW)",
        [2 * s for s in PAPER_SIZES_KW],
        series,
        title="Figure 13: TPI (ns) vs combined L1 size, p=6, B=4W",
        precision=2,
    )
    summary = (
        f"symmetric optimum: b={best.config.branch_slots}, "
        f"l={best.config.load_slots}, S={best.config.combined_l1_kw:g} KW "
        f"-> TPI {best.tpi_ns:.2f} ns\n"
        f"asymmetric optimum: L1-I={asym.config.icache_kw:g} KW (b="
        f"{asym.config.branch_slots}), L1-D={asym.config.dcache_kw:g} KW "
        f"(l={asym.config.load_slots}) -> TPI {asym.tpi_ns:.2f} ns"
    )
    return ExperimentResult(
        experiment_id="fig13",
        title="TPI vs combined L1 size (p=6) and asymmetric split",
        text=text + "\n" + summary,
        data={
            "tpi": data,
            "best": {
                "b": best.config.branch_slots,
                "l": best.config.load_slots,
                "combined_kw": best.config.combined_l1_kw,
                "tpi_ns": best.tpi_ns,
            },
            "best_asymmetric": {
                "b": asym.config.branch_slots,
                "l": asym.config.load_slots,
                "icache_kw": asym.config.icache_kw,
                "dcache_kw": asym.config.dcache_kw,
                "tpi_ns": asym.tpi_ns,
            },
        },
        paper_notes=(
            "Paper: symmetric optimum b=l=2 at 16 KW, 6.61 ns; asymmetric "
            "32 KW-I / 8 KW-D reaches 6.5 ns."
        ),
    )
