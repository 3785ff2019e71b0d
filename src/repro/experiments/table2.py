"""Table 2 — static code size increase versus branch delay slots."""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult
from repro.utils.tables import render_table

__all__ = ["run", "PAPER_EXPANSION_PCT"]

#: The paper's measured expansions for 1/2/3 delay slots.
PAPER_EXPANSION_PCT = {1: 6.0, 2: 14.0, 3: 23.0}


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    expansions = {slots: measurement.code_expansion_pct(slots) for slots in (1, 2, 3)}
    rows = [
        [slots, expansions[slots], PAPER_EXPANSION_PCT[slots]]
        for slots in (1, 2, 3)
    ]
    text = render_table(
        ["delay slots", "% code increase", "(paper)"],
        rows,
        title="Table 2: static code size vs branch delay slots",
        precision=1,
    )
    return ExperimentResult(
        experiment_id="table2",
        title="Static code size increase from delay-slot filling",
        text=text,
        data={"expansion_pct": expansions},
        paper_notes="Paper: 6 / 14 / 23 % for 1 / 2 / 3 slots.",
    )
