"""Figure 10 — the MCM floorplan geometry feeding the delay macro-model."""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult, PAPER_SIZES_KW
from repro.timing import DEFAULT_TECHNOLOGY, Floorplan, chips_for_cache, mcm_delay_ns
from repro.timing.sram import cache_access_time_ns
from repro.utils.tables import render_table

__all__ = ["run"]


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    tech = DEFAULT_TECHNOLOGY
    rows = []
    data = {}
    for size in PAPER_SIZES_KW:
        chips = chips_for_cache(size, tech)
        plan = Floorplan(chips=chips, pitch_cm=tech.chip_pitch_cm)
        rows.append(
            [
                size,
                chips,
                round(plan.short_side, 2),
                round(plan.long_side, 2),
                round(plan.max_wire_length_cm, 2),
                round(mcm_delay_ns(chips, tech), 3),
                round(cache_access_time_ns(size, tech), 2),
            ]
        )
        data[size] = {
            "chips": chips,
            "max_wire_cm": plan.max_wire_length_cm,
            "t_l1_ns": cache_access_time_ns(size, tech),
        }
    text = render_table(
        [
            "size (KW)",
            "chips n",
            "sqrt(n/2)",
            "sqrt(2n)",
            "max wire (cm)",
            "t_MCM (ns)",
            "t_L1 (ns)",
        ],
        rows,
        title="Figure 10: sqrt(n/2) x sqrt(2n) floorplan and resulting delays",
    )
    return ExperimentResult(
        experiment_id="fig10",
        title="MCM floorplan geometry and cache access times",
        text=text,
        data=data,
        paper_notes=(
            "Paper: chips packed as a sqrt(n/2) x sqrt(2n) rectangle with "
            "the CPU mid-long-side; max wire sqrt(2n) pitches; t_L1 linear "
            "in n (eq. 6)."
        ),
    )
