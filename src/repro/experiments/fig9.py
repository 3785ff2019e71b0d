"""Figure 9 — data-side CPI versus L1-D size across refill penalties.

Fixes l = 2 (the paper's configuration) and sweeps the three penalties;
higher penalties steepen the size dependence.
"""

from __future__ import annotations

from repro.cache.refill import PAPER_PENALTIES
from repro.core import CpiModel, SuiteMeasurement
from repro.experiments.common import (
    ExperimentResult,
    PAPER_SIZES_KW,
)
from repro.experiments.fig8 import data_side_cpi
from repro.utils.tables import render_series

__all__ = ["run"]


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    model = CpiModel(measurement)
    series = {}
    data = {}
    for penalty in PAPER_PENALTIES:
        values = [
            data_side_cpi(model, size, slots=2, penalty=penalty)
            for size in PAPER_SIZES_KW
        ]
        series[f"p={penalty}"] = values
        data[penalty] = dict(zip(PAPER_SIZES_KW, values))
    text = render_series(
        "L1-D size (KW)",
        list(PAPER_SIZES_KW),
        series,
        title="Figure 9: data-side CPI vs L1-D size at l=2 (B=4W)",
    )
    return ExperimentResult(
        experiment_id="fig9",
        title="Refill penalty versus L1-D cache size",
        text=text,
        data={"cpi": data},
        paper_notes=(
            "Paper: smaller caches suffer more as the penalty grows; the "
            "curves share the l=2 load-delay offset."
        ),
    )
