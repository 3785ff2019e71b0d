"""Synthetic workloads calibrated to the paper's benchmark suite (Table 1).

The paper drove its simulations with multiprogrammed traces of sixteen
instrumented MIPS R2000 benchmarks totalling 2.4 billion instructions.  The
1992 binaries and traces are unrecoverable, so this package synthesizes, for
each benchmark, a program whose *measurable statistics* match the published
ones:

* instruction mix (Table 1's loads/stores/branches/syscalls columns);
* control structure (CTI composition, branch direction bias, basic-block
  lengths) that reproduces the static-prediction and delay-slot-fill
  anchors of Section 3.1;
* load-use scheduling slack (the epsilon distributions of Figures 6/7),
  driven by MIPS addressing conventions ($gp/$sp stable bases);
* data reference locality (working-set size, reuse skew, streaming) that
  yields miss-rate-versus-size curves with the paper's CPI-per-doubling
  slope.

Every measurement in the experiments is *measured from the synthesized
programs and traces*, never copied from the paper; the specs here only set
the generator's knobs.
"""

from repro.workload.spec import BenchmarkSpec, Category, SynthesisShape, MemoryShape
from repro.workload.table1 import TABLE1_SUITE, benchmark_by_name
from repro.workload.synthesis import synthesize_program
from repro.workload.memory import DataReferenceModel

__all__ = [
    "BenchmarkSpec",
    "Category",
    "SynthesisShape",
    "MemoryShape",
    "TABLE1_SUITE",
    "benchmark_by_name",
    "synthesize_program",
    "DataReferenceModel",
]
