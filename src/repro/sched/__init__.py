"""Delay-slot scheduling: the paper's Section 3 machinery.

This package implements the two schedulers the paper evaluates and the
translation-file mechanism that lets traces of canonical (zero-delay-slot)
code simulate architectures with ``b`` branch delay slots:

* :mod:`~repro.sched.branch_schedule` — the four-step delay-slot insertion
  procedure of Section 3.1 (hoist the CTI over independent predecessors,
  predict backward-taken/forward-not-taken, replicate target instructions
  into predicted-taken slots, pad register-indirect jumps with noops);
* :mod:`~repro.sched.translation` — the per-block translation data (new
  addresses and lengths, the ``s`` counts, prediction flags);
* :mod:`~repro.sched.refstream` — expansion of an execution trace into the
  instruction reference stream of the translated code, including wrong-path
  fetches, plus the branch-delay cycle accounting behind Table 3;
* :mod:`~repro.sched.load_schedule` — the load-use slack (epsilon)
  analysis of Section 3.2 behind Figures 6/7 and Table 5.
"""

from repro.sched.branch_schedule import CtiSchedule, schedule_ctis
from repro.sched.translation import TranslationFile
from repro.sched.refstream import (
    InstructionStream,
    expand_istream,
    branch_delay_stats,
    BranchDelayStats,
)
from repro.sched.load_schedule import LoadSlackAnalysis, analyze_load_slack, EPSILON_CAP

__all__ = [
    "CtiSchedule",
    "schedule_ctis",
    "TranslationFile",
    "InstructionStream",
    "expand_istream",
    "branch_delay_stats",
    "BranchDelayStats",
    "LoadSlackAnalysis",
    "analyze_load_slack",
    "EPSILON_CAP",
]
