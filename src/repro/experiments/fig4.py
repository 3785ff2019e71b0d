"""Figure 4 — total instruction-side CPI vs L1-I size and delay slots.

Total here means base + I-miss stalls + branch-delay cycles, isolating the
instruction side as the paper's Figure 4 does.  The paper's observation:
for 1-16 KW it always pays to double the cache and add one more delay
slot, because the miss-CPI saved exceeds the delay-CPI added.
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

__all__ = ["run", "instruction_side_cpi"]


def instruction_side_cpi(model: CpiModel, size_kw: float, slots: int) -> float:
    """base + L1-I misses + branch delay cycles for one point."""
    config = SystemConfig(
        icache_kw=size_kw,
        dcache_kw=8,
        block_words=DEFAULT_BLOCK_WORDS,
        branch_slots=slots,
        penalty=DEFAULT_PENALTY,
    )
    return 1.0 + model.icache_cpi(config) + model.branch_cpi(config)


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    model = CpiModel(measurement)
    series = {}
    data = {}
    for slots in (0, 1, 2, 3):
        values = [instruction_side_cpi(model, size, slots) for size in PAPER_SIZES_KW]
        series[f"b={slots}"] = values
        data[slots] = dict(zip(PAPER_SIZES_KW, values))
    text = render_series(
        "L1-I size (KW)",
        list(PAPER_SIZES_KW),
        series,
        title="Figure 4: instruction-side CPI vs L1-I size (B=4W, p=10)",
    )
    return ExperimentResult(
        experiment_id="fig4",
        title="Branch delay slots versus L1-I cache size",
        text=text,
        data={"cpi": data},
        paper_notes=(
            "Paper: doubling the cache while adding one slot lowers CPI "
            "throughout 1-16 KW (slot cost 0.03-0.15 < size gain 0.05-0.2)."
        ),
    )
