"""Figure 11 — required relative t_CPU decrease vs L1-D size.

For each cache size: how much must the cycle time fall to pay for the
CPI added by 1, 2, or 3 load delay cycles (relative to zero delay
cycles)?  The paper reads off that two delay cycles need under a 10 %
cycle-time reduction, and that the requirement grows with cache size
(lower CPI leaves less to amortize against).
"""

from __future__ import annotations

from repro.core import CpiModel, SuiteMeasurement
from repro.core.tpi import required_tcpu_reduction
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
    for slots in (1, 2, 3):
        values = []
        for size in PAPER_SIZES_KW:
            base_cpi = data_side_cpi(model, size, slots=0)
            delayed_cpi = data_side_cpi(model, size, slots=slots)
            values.append(100.0 * required_tcpu_reduction(base_cpi, delayed_cpi))
        series[f"l={slots}"] = values
        data[slots] = dict(zip(PAPER_SIZES_KW, values))
    text = render_series(
        "L1-D size (KW)",
        list(PAPER_SIZES_KW),
        series,
        title="Figure 11: required t_CPU reduction (%) to break even",
    )
    return ExperimentResult(
        experiment_id="fig11",
        title="Cycle-time reduction required to justify load delay cycles",
        text=text,
        data={"required_reduction_pct": data},
        paper_notes=(
            "Paper: under 10 % for two delay cycles; the requirement "
            "grows with cache size, so deep pipelining helps less once "
            "CPI is already low."
        ),
    )
