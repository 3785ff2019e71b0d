"""repro — a reproduction of *Performance Optimization of Pipelined
Primary Caches* (Olukotun, Mudge, Brown; ISCA 1992).

The package rebuilds the paper's full methodology in Python:

* :mod:`repro.workload` / :mod:`repro.trace` — calibrated synthetic
  benchmarks and multiprogrammed trace generation (the paper's Table 1
  suite and instrumented traces);
* :mod:`repro.sched` / :mod:`repro.branchpred` — branch delay-slot
  scheduling with translation files, load-use slack analysis, and the
  branch-target buffer (Section 3);
* :mod:`repro.cache` — the trace-driven cache simulator (``cacheSIM``);
* :mod:`repro.timing` — MCM/SRAM delay macro-models and a minTcpu-style
  minimum-cycle-time analyzer (Section 4);
* :mod:`repro.core` — the multilevel TPI optimizer that closes the loop
  (Sections 2 and 5);
* :mod:`repro.experiments` — regeneration of every table and figure.

Quick start::

    from repro import SuiteMeasurement, CpiModel, SystemConfig, system_cycle_time_ns

    measurement = SuiteMeasurement(total_instructions=400_000)
    model = CpiModel(measurement)
    config = SystemConfig(icache_kw=8, dcache_kw=8, branch_slots=2, load_slots=2)
    cpi = model.cpi(config)
    tpi_ns = cpi * system_cycle_time_ns(config)
"""

from repro.core import (
    BranchScheme,
    CpiBreakdown,
    CpiModel,
    DesignOptimizer,
    DesignPoint,
    LoadScheme,
    PenaltyMode,
    SuiteMeasurement,
    SystemConfig,
    system_cycle_time_ns,
    tpi_ns,
)
from repro.errors import ReproError
from repro.workload import (
    TABLE1_SUITE,
    BenchmarkSpec,
    benchmark_by_name,
    synthesize_program,
)

__version__ = "1.0.0"

__all__ = [
    "BranchScheme",
    "CpiBreakdown",
    "CpiModel",
    "DesignOptimizer",
    "DesignPoint",
    "LoadScheme",
    "PenaltyMode",
    "SuiteMeasurement",
    "SystemConfig",
    "system_cycle_time_ns",
    "tpi_ns",
    "ReproError",
    "TABLE1_SUITE",
    "BenchmarkSpec",
    "benchmark_by_name",
    "synthesize_program",
    "__version__",
]
