"""The kernel backend every hot loop runs on.

The trace executor's walk (:mod:`repro.trace.executor`) and the
stack-distance scan behind every miss cube
(:mod:`repro.cache.stackdist`) are pure Python/numpy; there is no
compiled alternative.  Run ledgers and benchmark host facts still record
the backend, so a figure always says what produced it.
"""

from __future__ import annotations

__all__ = ["kernel_backend"]


def kernel_backend() -> str:
    """The kernel backend: always ``"numpy"``."""
    return "numpy"
