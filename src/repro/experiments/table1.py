"""Table 1 — benchmark suite characteristics, measured from the traces."""

from __future__ import annotations

from repro.core import SuiteMeasurement
from repro.experiments.common import ExperimentResult
from repro.utils.tables import render_table
from repro.workload import benchmark_by_name

__all__ = ["run"]


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    """Measured instruction mixes next to the published Table 1 values."""
    rows = []
    for row in measurement.benchmark_rows():
        spec = benchmark_by_name(str(row["name"]))
        rows.append(
            [
                row["name"],
                row["category"],
                row["instructions"],
                round(float(row["load_pct"]), 1),
                spec.load_pct,
                round(float(row["store_pct"]), 1),
                spec.store_pct,
                round(float(row["branch_pct"]), 1),
                spec.branch_pct,
                row["syscalls"],
            ]
        )
    text = render_table(
        [
            "benchmark",
            "cat",
            "inst(traced)",
            "loads%",
            "(paper)",
            "stores%",
            "(paper)",
            "CTIs%",
            "(paper)",
            "syscalls",
        ],
        rows,
        title="Table 1: benchmark characteristics (measured vs published)",
        precision=1,
    )
    return ExperimentResult(
        experiment_id="table1",
        title="Benchmark suite characteristics",
        text=text,
        data={"rows": measurement.benchmark_rows()},
        paper_notes=(
            "Suite totals: 24.7 % loads, 8.7 % stores, 13 % CTIs over "
            "2.4 G instructions (we trace a weighted sample)."
        ),
    )
