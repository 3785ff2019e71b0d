"""Table 6 — optimal cycle times vs cache size and pipeline depth."""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult, PAPER_SIZES_KW
from repro.timing.cycle_time import PAPER_DEPTHS, cycle_time_table
from repro.utils.tables import render_table

__all__ = ["run"]


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    """Regenerate the cycle-time grid (no traces needed: pure timing)."""
    table = cycle_time_table(PAPER_SIZES_KW, PAPER_DEPTHS)
    rows = []
    for depth in PAPER_DEPTHS:
        row: list = [depth]
        for size in PAPER_SIZES_KW:
            result = table[(size, depth)]
            marker = "*" if result.alu_critical else ""
            row.append(f"{result.cycle_ns:.2f}{marker}")
        rows.append(row)
    text = render_table(
        ["depth \\ size (KW)"] + [str(s) for s in PAPER_SIZES_KW],
        rows,
        title="Table 6: optimal t_CPU (ns); * = ALU feedback loop critical",
    )
    data = {
        (size, depth): table[(size, depth)].cycle_ns
        for size in PAPER_SIZES_KW
        for depth in PAPER_DEPTHS
    }
    return ExperimentResult(
        experiment_id="table6",
        title="Optimal cycle times for L1 caches (B_L1 = 4 W)",
        text=text,
        data={"cycle_ns": data},
        paper_notes=(
            "Paper anchors: 3.5 ns floor (2.1 ns add + 1.4 ns feedback); "
            "depth 0 exceeds 10 ns for all sizes; depths 2-3 leave the ALU "
            "critical for all but the largest caches."
        ),
    )
