"""Figure 8 — data-side CPI versus L1-D cache size and load delay slots.

Data-side CPI = base + D-miss stalls + unhidden load delay cycles (static
scheduling), at B = 4 W and p = 10 cycles.
"""

from __future__ import annotations

from repro.core import CpiModel, SuiteMeasurement, SystemConfig
from repro.experiments.common import (
    DEFAULT_BLOCK_WORDS,
    DEFAULT_PENALTY,
    ExperimentResult,
    PAPER_SIZES_KW,
)
from repro.utils.tables import render_series

__all__ = ["run", "data_side_cpi"]


def data_side_cpi(
    model: CpiModel, size_kw: float, slots: int, penalty: float = DEFAULT_PENALTY
) -> float:
    """base + L1-D misses + load delay cycles for one point."""
    config = SystemConfig(
        icache_kw=8,
        dcache_kw=size_kw,
        block_words=DEFAULT_BLOCK_WORDS,
        load_slots=slots,
        penalty=penalty,
    )
    return 1.0 + model.dcache_cpi(config) + model.load_cpi(config)


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    model = CpiModel(measurement)
    series = {}
    data = {}
    for slots in (0, 1, 2, 3):
        values = [data_side_cpi(model, size, slots) for size in PAPER_SIZES_KW]
        series[f"l={slots}"] = values
        data[slots] = dict(zip(PAPER_SIZES_KW, values))
    text = render_series(
        "L1-D size (KW)",
        list(PAPER_SIZES_KW),
        series,
        title="Figure 8: data-side CPI vs L1-D size (B=4W, p=10, static loads)",
    )
    return ExperimentResult(
        experiment_id="fig8",
        title="Load delay slots versus L1-D cache size",
        text=text,
        data={"cpi": data},
        paper_notes=(
            "Paper: curves shift up by the Table 5 static-load increments "
            "as l grows; miss CPI falls steadily with size."
        ),
    )
