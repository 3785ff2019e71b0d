"""Table 5 — CPI increase from load delay cycles (static vs dynamic)."""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult
from repro.utils.tables import render_table

__all__ = ["run", "PAPER_LOAD_DELAYS"]

#: The paper's Table 5: slots -> (static cycles/load, static CPI,
#: dynamic cycles/load, dynamic CPI).
PAPER_LOAD_DELAYS = {
    1: (0.21, 0.05, 0.04, 0.01),
    2: (0.62, 0.18, 0.19, 0.05),
    3: (1.21, 0.29, 0.39, 0.08),
}


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    slack = measurement.load_slack
    rows = []
    data = {}
    for slots in (1, 2, 3):
        static_cycles = slack.delay_cycles_per_load("static", slots)
        static_cpi = slack.cpi_increase("static", slots)
        dynamic_cycles = slack.delay_cycles_per_load("dynamic", slots)
        dynamic_cpi = slack.cpi_increase("dynamic", slots)
        paper = PAPER_LOAD_DELAYS[slots]
        rows.append(
            [
                slots,
                round(static_cycles, 2),
                paper[0],
                round(static_cpi, 3),
                paper[1],
                round(dynamic_cycles, 2),
                paper[2],
                round(dynamic_cpi, 3),
                paper[3],
            ]
        )
        data[slots] = {
            "static_cycles_per_load": static_cycles,
            "static_cpi": static_cpi,
            "dynamic_cycles_per_load": dynamic_cycles,
            "dynamic_cpi": dynamic_cpi,
        }
    text = render_table(
        [
            "delay slots",
            "static cyc/load",
            "(paper)",
            "static CPI",
            "(paper)",
            "dyn cyc/load",
            "(paper)",
            "dyn CPI",
            "(paper)",
        ],
        rows,
        title="Table 5: CPI increase from load delay cycles",
        precision=3,
    )
    return ExperimentResult(
        experiment_id="table5",
        title="Load delay cycles: static vs dynamic scheduling",
        text=text,
        data=data,
        paper_notes=(
            "Paper: static hides far fewer slots than dynamic "
            "(0.21/0.62/1.21 vs 0.04/0.19/0.39 cycles per load)."
        ),
    )
