"""Experiment harness: one module per table and figure of the paper.

Every module exposes ``run(measurement) -> ExperimentResult``; the CLI
(``repro-experiments``, or ``python -m repro.experiments.runner``)
regenerates any subset.  Results are plain text — the same rows/series the
paper's tables and figures report — plus a raw-data dict for programmatic
use and for the paper-shape tests.
"""

from repro.experiments.common import ExperimentResult, EXPERIMENT_SCALES

__all__ = ["ExperimentResult", "EXPERIMENT_SCALES"]
