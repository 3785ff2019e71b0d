"""Extension — block-size selection per refill rate.

The paper states: "For each value of miss penalty the block size was
selected to achieve the lowest CPI" (Section 3.1).  This ablation makes
that selection explicit: for each refill rate (4/2/1 words per cycle, the
rates behind the 6/10/18-cycle penalties), it computes total CPI at block
sizes 4/8/16 W — where the penalty itself depends on the block size
through the refill model — and reports the winner.
"""

from __future__ import annotations

import dataclasses
from repro.cache.refill import RefillModel
from repro.core import CpiModel, SuiteMeasurement, SystemConfig
from repro.experiments.common import ExperimentResult
from repro.utils.tables import render_table

__all__ = ["run", "REFILL_RATES", "BLOCK_SIZES"]

REFILL_RATES = (4, 2, 1)  # words per cycle
BLOCK_SIZES = (4, 8, 16)  # words


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    model = CpiModel(measurement)
    base = SystemConfig(icache_kw=8, dcache_kw=8, branch_slots=2, load_slots=2)
    # One engine pass per side answers every block size of the study at
    # once; the per-(rate, block) CPI loop below then runs entirely on
    # cube slices, with no per-configuration cache simulation.
    measurement.icache_miss_cube(base.branch_slots, BLOCK_SIZES)
    measurement.dcache_miss_cube(BLOCK_SIZES)
    rows = []
    data = {}
    for rate in REFILL_RATES:
        refill = RefillModel(startup_cycles=2, refill_rate_words=rate)
        best_block = None
        best_cpi = None
        per_block = {}
        for block in BLOCK_SIZES:
            penalty = refill.penalty_cycles(block)
            config = dataclasses.replace(base, block_words=block, penalty=penalty)
            cpi = model.cpi(config)
            per_block[block] = {"penalty_cycles": penalty, "cpi": cpi}
            rows.append([rate, block, penalty, round(cpi, 3)])
            if best_cpi is None or cpi < best_cpi:
                best_cpi, best_block = cpi, block
        data[rate] = {"per_block": per_block, "best_block": best_block}
        rows.append([rate, f"best={best_block}W", "-", round(best_cpi, 3)])
    text = render_table(
        ["refill (W/cycle)", "block (W)", "penalty (cycles)", "CPI"],
        rows,
        title="Extension: block-size selection per refill rate (8 KW sides, b=l=2)",
    )
    return ExperimentResult(
        experiment_id="ext_blocksize",
        title="Choosing the block size for each refill rate",
        text=text,
        data=data,
        paper_notes=(
            "The paper performed this selection before each penalty sweep; "
            "faster refill favours larger blocks (more spatial prefetch "
            "per startup), slower refill favours smaller ones."
        ),
    )
