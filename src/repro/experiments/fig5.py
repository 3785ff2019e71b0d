"""Figure 5 — CPI versus t_CPU for various cache sizes.

With the miss penalty fixed in *nanoseconds* (a property of the memory
system, not the CPU clock), slowing the clock makes each miss cost fewer
cycles, so CPI falls as t_CPU rises.  The paper plots this for a system
with two branch delay slots at p = 10 cycles (referenced to its cycle
time); we use the equivalent 35 ns memory latency.
"""

from __future__ import annotations

from repro.core import CpiModel, SuiteMeasurement, SystemConfig
from repro.core.config import PenaltyMode
from repro.experiments.common import (
    DEFAULT_BLOCK_WORDS,
    ExperimentResult,
)
from repro.utils.tables import render_series

__all__ = ["run", "TCPU_GRID_NS", "MEMORY_LATENCY_NS"]

TCPU_GRID_NS = (3.5, 4.5, 6.0, 8.0, 10.0, 14.0)
#: 10 cycles at the 3.5 ns floor.
MEMORY_LATENCY_NS = 35.0
_SIZES_KW = (1, 4, 16)


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    model = CpiModel(measurement)
    series = {}
    data = {}
    for size in _SIZES_KW:
        config = SystemConfig(
            icache_kw=size,
            dcache_kw=size,
            block_words=DEFAULT_BLOCK_WORDS,
            branch_slots=2,
            load_slots=2,
            penalty=MEMORY_LATENCY_NS,
            penalty_mode=PenaltyMode.NANOSECONDS,
        )
        values = [model.cpi(config, cycle_time_ns=t) for t in TCPU_GRID_NS]
        series[f"S={size}KW"] = values
        data[size] = dict(zip(TCPU_GRID_NS, values))
    text = render_series(
        "t_CPU (ns)",
        list(TCPU_GRID_NS),
        series,
        title="Figure 5: CPI vs t_CPU (b=2, 35 ns memory latency)",
    )
    return ExperimentResult(
        experiment_id="fig5",
        title="CPI versus cycle time at constant-time miss penalty",
        text=text,
        data={"cpi": data},
        paper_notes=(
            "Paper: CPI decreases as t_CPU increases (fewer cycles per "
            "miss); smaller caches are affected more."
        ),
    )
