"""Extension — BTB capacity sweep.

The paper restricted the BTB to 256 entries so it could be accessed in a
single cycle, acknowledging "one could argue that the relatively small
size of the BTB compromises its performance".  This ablation quantifies
exactly that: wrong rate (miss or mispredict) versus BTB entries over the
same multiprogrammed CTI stream, with the cycles-per-CTI each size would
give at two delay cycles.
"""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult
from repro.utils.tables import render_table

__all__ = ["run", "BTB_SIZES"]

BTB_SIZES = (64, 256, 1024, 4096)


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    rows = []
    data = {}
    for entries, stats in measurement.btb_sweep(BTB_SIZES).items():
        rows.append(
            [
                entries,
                round(stats.hit_rate, 3),
                round(stats.wrong_rate, 3),
                round(stats.cycles_per_cti(2), 2),
            ]
        )
        data[entries] = {
            "hit_rate": stats.hit_rate,
            "wrong_rate": stats.wrong_rate,
            "cycles_per_cti_2": stats.cycles_per_cti(2),
        }
    text = render_table(
        ["entries", "hit rate", "wrong rate", "cycles/CTI (b=2)"],
        rows,
        title="Extension: BTB capacity vs prediction quality",
    )
    return ExperimentResult(
        experiment_id="ext_btb_size",
        title="How much the single-cycle size constraint costs the BTB",
        text=text,
        data=data,
        paper_notes=(
            "The paper's 256-entry limit comes from single-cycle access at "
            "the 3.5 ns floor; larger BTBs would predict better but slower."
        ),
    )
