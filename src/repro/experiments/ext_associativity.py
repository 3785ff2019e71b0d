"""Extension — the Section 6 associativity conjecture, tested.

The paper closes with: "If t_CPU is less dependent on the access time of
pipelined L1 caches, then increasing the associativity of the cache to
lower the miss ratio will have a larger performance benefit for pipelined
caches."  This experiment runs that study over a full capacity x ways
surface at full stream length (every point read from the session's one
data-side miss cube — see :mod:`repro.cache.misscube`):

* L1-D misses for every paper capacity (1-32 KW) at 1-, 2-, 4-, and
  8-way LRU organizations (exact simulation over the same
  multiprogrammed stream);
* cycle time including the way-select penalty of an associative access;
* data-side TPI at a shallow (l = 1) and a deep (l = 3) cache pipeline
  for every surface point.

Expected shape: at depth 1 the longer associative access lands on the
critical path and eats the miss gain; at depth 3 the ALU loop hides it and
associativity is close to a pure win — confirming the conjecture.  The
headline table keeps the paper-baseline 8 KW capacity; the surface shows
the same crossover at every size.
"""

from __future__ import annotations

from repro.core import CpiModel, SuiteMeasurement, SystemConfig
from repro.experiments.common import (
    DEFAULT_BLOCK_WORDS,
    DEFAULT_PENALTY,
    ExperimentResult,
)
from repro.timing.cycle_time import cycle_time_ns
from repro.utils.tables import render_table

__all__ = ["run", "ASSOCIATIVITIES", "CAPACITIES_KW", "DCACHE_KW"]

ASSOCIATIVITIES = (1, 2, 4, 8)
CAPACITIES_KW = (1, 2, 4, 8, 16, 32)
DCACHE_KW = 8  # headline capacity for the Section 6 table


def run(measurement: SuiteMeasurement) -> ExperimentResult:
    model = CpiModel(measurement)
    misses = {
        (size_kw, ways): measurement.misses(
            "D", DEFAULT_BLOCK_WORDS, size_kw, ways=ways
        )
        for size_kw in CAPACITIES_KW
        for ways in ASSOCIATIVITIES
    }

    # Non-D-cache CPI depends on the pipeline depth but not on the
    # D-side geometry being swept, so compute it once per depth.
    non_dcache_cpi = {}
    for depth in (1, 3):
        config = SystemConfig(
            icache_kw=8,
            dcache_kw=DCACHE_KW,
            block_words=DEFAULT_BLOCK_WORDS,
            branch_slots=depth,
            load_slots=depth,
            penalty=DEFAULT_PENALTY,
        )
        non_dcache_cpi[depth] = (
            1.0
            + model.icache_cpi(config)
            + model.branch_cpi(config)
            + model.load_cpi(config)
        )

    def tpi_point(depth: int, size_kw: float, associativity: int) -> dict:
        dcache_cpi = (
            misses[(size_kw, associativity)]
            * DEFAULT_PENALTY
            / measurement.canonical_instructions
        )
        cycle = max(
            cycle_time_ns(8, depth),
            cycle_time_ns(size_kw, depth, associativity=associativity),
        )
        return {
            "misses": misses[(size_kw, associativity)],
            "dcache_cpi": dcache_cpi,
            "cycle_ns": cycle,
            "tpi_ns": (non_dcache_cpi[depth] + dcache_cpi) * cycle,
        }

    # Headline table: the paper-baseline capacity, both depths.
    rows = []
    data = {}
    for depth in (1, 3):
        for associativity in ASSOCIATIVITIES:
            point = tpi_point(depth, DCACHE_KW, associativity)
            rows.append(
                [
                    depth,
                    associativity,
                    point["misses"],
                    round(point["dcache_cpi"], 3),
                    round(point["cycle_ns"], 2),
                    round(point["tpi_ns"], 2),
                ]
            )
            data[(depth, associativity)] = point
    text = render_table(
        ["depth", "ways", "D misses", "D-miss CPI", "t_CPU (ns)", "TPI (ns)"],
        rows,
        title=(
            f"Extension: associativity at fixed {DCACHE_KW} KW L1-D capacity "
            "(Section 6 conjecture)"
        ),
    )

    # Full surface: every paper capacity x every way count, TPI at both
    # pipeline depths from the same single-pass plane.
    surface = {}
    surface_rows = []
    for size_kw in CAPACITIES_KW:
        for associativity in ASSOCIATIVITIES:
            shallow = tpi_point(1, size_kw, associativity)
            deep = tpi_point(3, size_kw, associativity)
            surface[(size_kw, associativity)] = {
                "misses": shallow["misses"],
                "tpi_shallow_ns": shallow["tpi_ns"],
                "tpi_deep_ns": deep["tpi_ns"],
            }
            surface_rows.append(
                [
                    size_kw,
                    associativity,
                    shallow["misses"],
                    round(shallow["tpi_ns"], 2),
                    round(deep["tpi_ns"], 2),
                ]
            )
    surface_text = render_table(
        ["KW", "ways", "D misses", "TPI l=1 (ns)", "TPI l=3 (ns)"],
        surface_rows,
        title="Capacity x ways surface (single-pass stack-distance plane)",
    )

    benefit_shallow = data[(1, 1)]["tpi_ns"] - data[(1, 2)]["tpi_ns"]
    benefit_deep = data[(3, 1)]["tpi_ns"] - data[(3, 2)]["tpi_ns"]
    # How often does doubling the ways pay at each depth, across the
    # whole surface?  The conjecture predicts deep >> shallow.
    wins_shallow = sum(
        1
        for size_kw in CAPACITIES_KW
        for a, b in zip(ASSOCIATIVITIES, ASSOCIATIVITIES[1:])
        if surface[(size_kw, b)]["tpi_shallow_ns"]
        < surface[(size_kw, a)]["tpi_shallow_ns"]
    )
    wins_deep = sum(
        1
        for size_kw in CAPACITIES_KW
        for a, b in zip(ASSOCIATIVITIES, ASSOCIATIVITIES[1:])
        if surface[(size_kw, b)]["tpi_deep_ns"]
        < surface[(size_kw, a)]["tpi_deep_ns"]
    )
    steps = len(CAPACITIES_KW) * (len(ASSOCIATIVITIES) - 1)
    summary = (
        f"2-way TPI benefit at {DCACHE_KW} KW: {benefit_shallow:+.3f} ns at "
        f"depth 1, {benefit_deep:+.3f} ns at depth 3 "
        f"(conjecture holds iff the deep benefit is larger); "
        f"doubling the ways wins {wins_shallow}/{steps} times at depth 1 "
        f"vs {wins_deep}/{steps} at depth 3 across the surface"
    )
    return ExperimentResult(
        experiment_id="ext_associativity",
        title="Associativity pays more once the cache is pipelined",
        text=text + "\n" + surface_text + "\n" + summary,
        data={
            "points": data,
            "surface": surface,
            "benefit_shallow_ns": benefit_shallow,
            "benefit_deep_ns": benefit_deep,
            "way_doubling_wins_shallow": wins_shallow,
            "way_doubling_wins_deep": wins_deep,
        },
        paper_notes=(
            "Section 6: pipelining decouples t_CPU from access time, so "
            "associativity's miss-rate gain should win more at depth 2-3."
        ),
    )
