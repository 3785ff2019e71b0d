"""Shared fixtures: one small measurement session for all core tests.

The session uses a reduced instruction budget and a benchmark subset so
the whole core test module stays fast; the full-suite paper-shape checks
live in ``tests/experiments/test_paper_shape.py``.
"""

import pytest

from repro.core import SuiteMeasurement
from repro.workload import benchmark_by_name

SUBSET = ["gcc", "yacc", "matrix500", "small"]


@pytest.fixture(scope="session")
def measurement():
    specs = [benchmark_by_name(name) for name in SUBSET]
    return SuiteMeasurement(
        specs=specs,
        total_instructions=240_000,
        min_benchmark_instructions=30_000,
        use_disk_cache=False,
    )
