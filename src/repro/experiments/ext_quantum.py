"""Extension — context-switch quantum sensitivity.

The paper's traces are *multiprogrammed*, and the quantum (how many
instructions each process runs between switches) controls how much
inter-process cache interference the L1 sees.  This ablation rebuilds the
interleaving at several quanta and reports the L1 miss CPI at an 8 KW
split — documenting a methodological sensitivity the paper does not
expose.  At the given session's own quantum the study reads that
session, whose planes fig3 and fig5 build in a full run.  Each other
quantum's session runs on the given session's store, worker pool and
tracer, so the expensive per-benchmark traces are reused and its cube
builds show up in the run's spans.
"""

from __future__ import annotations

from repro.core import CpiModel, SuiteMeasurement, SystemConfig
from repro.experiments.common import (
    DEFAULT_BLOCK_WORDS,
    DEFAULT_PENALTY,
    ExperimentResult,
)
from repro.utils.tables import render_table

__all__ = ["run", "QUANTA"]

QUANTA = (5_000, 25_000, 100_000)


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    rows = []
    data = {}
    config = SystemConfig(
        icache_kw=8,
        dcache_kw=8,
        block_words=DEFAULT_BLOCK_WORDS,
        branch_slots=2,
        load_slots=2,
        penalty=DEFAULT_PENALTY,
    )
    for quantum in QUANTA:
        if quantum == measurement.quantum_instructions:
            session = measurement
        else:
            session = SuiteMeasurement(
                specs=measurement.specs,
                total_instructions=measurement.total_instructions,
                seed=measurement.seed,
                quantum_instructions=quantum,
                min_benchmark_instructions=measurement.min_benchmark_instructions,
                store=measurement.store,
                executor=measurement.executor,
                tracer=measurement.tracer,
            )
        model = CpiModel(session)
        icache = model.icache_cpi(config)
        dcache = model.dcache_cpi(config)
        rows.append(
            [quantum, session.switches, round(icache, 3), round(dcache, 3)]
        )
        data[quantum] = {
            "switches": session.switches,
            "icache_cpi": icache,
            "dcache_cpi": dcache,
        }
    text = render_table(
        ["quantum (inst)", "switches/bench", "L1-I miss CPI", "L1-D miss CPI"],
        rows,
        title="Extension: context-switch quantum vs L1 miss CPI (8 KW sides)",
    )
    return ExperimentResult(
        experiment_id="ext_quantum",
        title="Multiprogramming quantum sensitivity",
        text=text,
        data=data,
        paper_notes=(
            "Shorter quanta add cold/interference misses on both sides; "
            "the headline experiments use a 25 k-instruction quantum."
        ),
    )
