"""Table 3 — static branch prediction performance vs delay slots."""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult
from repro.utils.tables import render_table

__all__ = ["run"]


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    rows = []
    data = {}
    for slots in (1, 2, 3):
        stats = measurement.branch_stats(slots)
        rows.append(
            [
                slots,
                round(stats.predicted_taken_pct, 1),
                round(100 * stats.taken_accuracy, 1),
                round(100 - stats.predicted_taken_pct, 1),
                round(100 * stats.not_taken_accuracy, 1),
                round(stats.cycles_per_cti, 2),
                round(stats.additional_cpi, 3),
            ]
        )
        data[slots] = {
            "cycles_per_cti": stats.cycles_per_cti,
            "additional_cpi": stats.additional_cpi,
            "predicted_taken_pct": stats.predicted_taken_pct,
            "taken_accuracy": stats.taken_accuracy,
            "not_taken_accuracy": stats.not_taken_accuracy,
        }
    text = render_table(
        [
            "delay slots",
            "pred-taken %",
            "correct %",
            "pred-NT %",
            "correct %",
            "cycles/CTI",
            "add'l CPI",
        ],
        rows,
        title="Table 3: static prediction with optional squashing",
        precision=3,
    )
    return ExperimentResult(
        experiment_id="table3",
        title="Static branch prediction performance",
        text=text,
        data=data,
        paper_notes=(
            "Paper: ~60 % of CTIs predicted taken; 3 slots raise CPI only "
            "~8.7 % (0.087) instead of the worst-case 39 %."
        ),
    )
