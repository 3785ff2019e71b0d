"""Design-point reports: the human-readable face of the optimizer.

Turns one or more evaluated :class:`~repro.core.optimizer.DesignPoint`
objects into the kind of summary a designer would circulate: the CPI
decomposition, which loop sets the cycle time, and the Pareto set.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cpi_model import CpiModel
from repro.core.optimizer import DesignPoint, point_order_key
from repro.core.tcpu import side_cycle_times_ns
from repro.errors import ConfigurationError
from repro.timing.technology import DEFAULT_TECHNOLOGY, Technology
from repro.utils.tables import render_table

__all__ = ["design_point_report", "frontier_report"]


def design_point_report(
    point: DesignPoint,
    model: CpiModel,
    tech: Technology = DEFAULT_TECHNOLOGY,
) -> str:
    """A one-design-point brief: configuration, CPI parts, timing."""
    config = point.config
    breakdown = model.breakdown(config, cycle_time_ns=point.cycle_time_ns)
    icache_ns, dcache_ns = side_cycle_times_ns(config, tech)
    if point.cycle_time_ns <= tech.alu_loop_ns + 5e-3:
        critical = "ALU feedback loop"
    elif icache_ns >= dcache_ns:
        critical = "L1-I access loop"
    else:
        critical = "L1-D access loop"
    lines = [
        f"design: L1-I {config.icache_kw:g} KW (b={config.branch_slots}), "
        f"L1-D {config.dcache_kw:g} KW (l={config.load_slots}), "
        f"{config.block_words} W blocks, penalty {config.penalty:g} "
        f"{config.penalty_mode.value}",
        f"schemes: branch={config.branch_scheme.value}, "
        f"load={config.load_scheme.value}",
        render_table(
            ["component", "CPI"],
            [
                ["base", breakdown.base],
                ["L1-I misses", breakdown.icache],
                ["L1-D misses", breakdown.dcache],
                ["branch delays", breakdown.branch],
                ["load delays", breakdown.load],
                ["total", breakdown.total],
            ],
        ),
        f"t_CPU: {point.cycle_time_ns:.2f} ns "
        f"(I side {icache_ns:.2f}, D side {dcache_ns:.2f}; "
        f"critical: {critical})",
        f"TPI: {point.tpi_ns:.2f} ns per instruction",
    ]
    return "\n".join(lines)


def frontier_report(points: Sequence[DesignPoint]) -> str:
    """The Pareto set over (TPI, EPI, area) as a designer-facing table.

    ``points`` should already be a frontier (e.g. from
    :meth:`~repro.core.optimizer.DesignOptimizer.frontier`); the rows
    are re-sorted by :func:`~repro.core.optimizer.point_order_key` so
    the rendering is deterministic whatever order the caller held them
    in.  Each row flags which single objectives that point wins.
    """
    if not points:
        raise ConfigurationError("nothing to report: empty frontier")
    ordered = sorted(points, key=point_order_key)
    winners = {
        "tpi": min(ordered, key=lambda p: (p.tpi_ns, point_order_key(p))),
        "epi": min(ordered, key=lambda p: (p.epi_nj, point_order_key(p))),
        "edp": min(ordered, key=lambda p: (p.edp, point_order_key(p))),
        "area": min(ordered, key=lambda p: (p.area_cm2, point_order_key(p))),
    }
    rows = []
    for point in ordered:
        config = point.config
        best_for = " ".join(
            sorted(name for name, winner in winners.items() if winner is point)
        )
        rows.append(
            [
                f"{config.icache_kw:g}I/{config.dcache_kw:g}D KW",
                f"b={config.branch_slots} l={config.load_slots}",
                round(point.tpi_ns, 2),
                round(point.epi_nj, 2),
                round(point.edp, 2),
                round(point.area_cm2, 1),
                round(point.power_w, 2),
                best_for or "-",
            ]
        )
    return render_table(
        [
            "L1 split",
            "slots",
            "TPI (ns)",
            "EPI (nJ)",
            "EDP",
            "area (cm2)",
            "power (W)",
            "best for",
        ],
        rows,
        title=f"Pareto frontier over (TPI, EPI, area) - {len(ordered)} points",
    )
