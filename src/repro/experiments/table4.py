"""Table 4 — branch-target buffer prediction performance."""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult
from repro.utils.tables import render_table

__all__ = ["run", "PAPER_BTB"]

#: The paper's Table 4: delay cycles -> (cycles per CTI, additional CPI).
PAPER_BTB = {1: (1.44, 0.057), 2: (1.65, 0.082), 3: (1.85, 0.110)}


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    stats = measurement.btb_stats
    cti_fraction = measurement.cti_fraction
    rows = []
    data = {
        "hit_rate": stats.hit_rate,
        "wrong_rate": stats.wrong_rate,
        "per_delay": {},
    }
    for delay in (1, 2, 3):
        cycles = stats.cycles_per_cti(delay)
        cpi = stats.additional_cpi(delay, cti_fraction)
        paper_cycles, paper_cpi = PAPER_BTB[delay]
        rows.append([delay, round(cycles, 2), paper_cycles, round(cpi, 3), paper_cpi])
        data["per_delay"][delay] = {"cycles_per_cti": cycles, "additional_cpi": cpi}
    text = render_table(
        ["delay cycles", "cycles/CTI", "(paper)", "add'l CPI", "(paper)"],
        rows,
        title=(
            "Table 4: 256-entry BTB "
            f"(hit rate {stats.hit_rate:.2f}, wrong rate {stats.wrong_rate:.2f})"
        ),
        precision=3,
    )
    return ExperimentResult(
        experiment_id="table4",
        title="BTB prediction performance",
        text=text,
        data=data,
        paper_notes="Paper: 1.44 / 1.65 / 1.85 cycles per CTI; CPI 0.057 / 0.082 / 0.110.",
    )
