"""Figure 7 — epsilon distribution truncated at basic-block boundaries."""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult
from repro.experiments.fig6 import histogram_rows
from repro.utils.tables import render_table

__all__ = ["run"]


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    slack = measurement.load_slack
    text = render_table(
        ["epsilon", "dynamic loads", "%"],
        histogram_rows(slack.static_histogram),
        title="Figure 7: epsilon within basic-block boundaries",
        precision=1,
    )
    return ExperimentResult(
        experiment_id="fig7",
        title="Load-use slack under within-block static scheduling",
        text=text,
        data={
            "histogram": dict(slack.static_histogram),
            "fraction_ge_3": slack.fraction_at_least("static", 3),
        },
        paper_notes=(
            "Paper: block boundaries move most of the mass below 3 "
            "(static scheduling hides far fewer slots than Figure 6 "
            "suggests is dynamically possible)."
        ),
    )
