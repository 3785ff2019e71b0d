"""The paper's primary contribution: multilevel optimization of pipelined
primary caches.

This package closes the loop the paper describes in Section 2:

* :class:`~repro.core.measurement.SuiteMeasurement` — one multiprogrammed
  measurement session over the Table 1 suite: traces, translations,
  reference streams, prediction statistics, epsilon analyses;
* :class:`~repro.core.cpi_model.CpiModel` — assembles CPI for any system
  configuration from the measured components (Section 3);
* :mod:`~repro.core.tcpu` — derives the system cycle time from the timing
  analyzer (Section 4), taking the max over the I- and D-side loops;
* :mod:`~repro.core.tpi` — TPI = CPI x t_CPU (equation 1) and the
  incremental tradeoff of equation 7;
* :class:`~repro.core.optimizer.DesignOptimizer` — sweeps the design
  space (sizes, delay slots, penalties, schemes) and reports the optimum,
  reproducing Figures 12/13 and the paper's headline conclusions.
"""

from repro.core.config import SystemConfig, BranchScheme, LoadScheme, PenaltyMode
from repro.core.measurement import SuiteMeasurement
from repro.core.cpi_model import CpiBreakdown, CpiModel
from repro.core.tcpu import system_cycle_time_ns
from repro.core.tpi import tpi_ns
from repro.core.frontier import pareto_frontier, within_budgets
from repro.core.optimizer import DesignOptimizer, DesignPoint, Selection
from repro.core.report import design_point_report, frontier_report

__all__ = [
    "design_point_report",
    "frontier_report",
    "pareto_frontier",
    "within_budgets",
    "Selection",
    "SystemConfig",
    "BranchScheme",
    "LoadScheme",
    "PenaltyMode",
    "SuiteMeasurement",
    "CpiBreakdown",
    "CpiModel",
    "system_cycle_time_ns",
    "tpi_ns",
    "DesignOptimizer",
    "DesignPoint",
]
