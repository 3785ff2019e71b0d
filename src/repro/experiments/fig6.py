"""Figure 6 — dynamic distribution of load scheduling slack (epsilon)."""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult
from repro.sched.load_schedule import EPSILON_CAP
from repro.utils.tables import render_table

__all__ = ["run", "histogram_rows"]


def histogram_rows(histogram):
    total = sum(histogram.values())
    rows = []
    for eps in range(EPSILON_CAP + 1):
        count = histogram.get(eps, 0)
        if count == 0 and eps not in (0, EPSILON_CAP):
            continue
        label = f">={eps}" if eps == EPSILON_CAP else str(eps)
        rows.append([label, count, 100.0 * count / total if total else 0.0])
    return rows


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    slack = measurement.load_slack
    text = render_table(
        ["epsilon", "dynamic loads", "%"],
        histogram_rows(slack.dynamic_histogram),
        title="Figure 6: dynamic epsilon (c + d) distribution",
        precision=1,
    )
    return ExperimentResult(
        experiment_id="fig6",
        title="Dynamic load-use slack distribution",
        text=text,
        data={
            "histogram": dict(slack.dynamic_histogram),
            "fraction_ge_3": slack.fraction_at_least("dynamic", 3),
        },
        paper_notes="Paper: over 80 % of loads have epsilon >= 3.",
    )
