"""Structured instrumentation for the measurement loop (`repro.obs`).

The paper's methodology is itself a measurement pipeline — trace
simulation feeds CPI, timing analysis feeds t_CPU, and the optimizer
multiplies them — so the harness should be able to observe its own
execution the same way it observes the simulated machine.  This package
provides that observability without perturbing any result:

* :mod:`repro.obs.tracer` — :class:`Span`/:class:`Tracer`, nested
  context-manager timers over monotonic clocks with per-span counters,
  plus a zero-overhead :class:`NullTracer` used whenever profiling is
  not requested;
* :mod:`repro.obs.ledger` — :class:`RunLedger`, the machine-readable
  record of one experiment run (host, spans, artifact-store counters,
  executor/backend info, scale, seed, per-experiment wall time) written
  as ``metrics.json`` and rendered as ASCII via
  :mod:`repro.utils.tables`.

Everything here is strictly passive: tracers time and count, they never
decide.  ``results/*.txt`` is byte-identical with instrumentation on or
off.
"""

from repro.obs.ledger import LEDGER_SCHEMA, RunLedger
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    render_span_tree,
)

__all__ = [
    "LEDGER_SCHEMA",
    "NULL_TRACER",
    "NullTracer",
    "RunLedger",
    "Span",
    "Tracer",
    "render_span_tree",
]
