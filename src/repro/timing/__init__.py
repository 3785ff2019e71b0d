"""Timing analysis: the reproduction's ``minTcpu`` and delay macro-models.

The paper derives ``t_CPU`` from two ingredients:

* a *delay macro-model* for the MCM-based L1 cache (Section 4,
  equations 3-6): ``t_L1 = t_SRAM + 2 k0 + 2 n k1`` where ``n`` is the
  number of SRAM chips and ``k1`` captures the per-chip attach capacitance
  plus the distributed RC of the interconnect, whose length follows the
  sqrt(n/2) x sqrt(2n) floorplan of Figure 10;
* a *timing analyzer* in the style of checkTc/minTc [SMO90]: binary search
  for the smallest clock period under which the latch-to-latch constraint
  graph of the CPU datapath admits a feasible schedule, with level-
  sensitive latches allowed to borrow time across stage boundaries
  (the paper's "optimized multiphase clocking").

The datapath model (:mod:`~repro.timing.datapath`) contains the two loops
that ever become critical: the ALU feedback loop (2.1 ns add + 1.4 ns
feedback = the 3.5 ns floor of Table 6) and the address-generation /
cache-access loop spread over ``d_L1 + 1`` pipeline stages.
"""

from repro.timing.technology import Technology, DEFAULT_TECHNOLOGY
from repro.timing.floorplan import Floorplan
from repro.timing.mcm import mcm_delay_ns, k1_coefficient
from repro.timing.sram import chips_for_cache, cache_access_time_ns
from repro.timing.circuit import SynchronousCircuit, Latch, Path
from repro.timing.analyzer import TimingAnalyzer
from repro.timing.datapath import build_cpu_datapath
from repro.timing.cycle_time import cycle_time_ns, cycle_time_table

__all__ = [
    "Technology",
    "DEFAULT_TECHNOLOGY",
    "Floorplan",
    "mcm_delay_ns",
    "k1_coefficient",
    "chips_for_cache",
    "cache_access_time_ns",
    "SynchronousCircuit",
    "Latch",
    "Path",
    "TimingAnalyzer",
    "build_cpu_datapath",
    "cycle_time_ns",
    "cycle_time_table",
]
