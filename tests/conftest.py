"""Shared fixtures: a private disk tier for the whole run, and one small
measurement session for all core tests.

The session uses a reduced instruction budget and a benchmark subset so
the whole core test module stays fast; the full-suite paper-shape checks
live in ``tests/experiments/test_paper_shape.py``.
"""

import pytest

from repro.core import SuiteMeasurement
from repro.engine.store import ArtifactStore
from repro.workload import benchmark_by_name

SUBSET = ["gcc", "yacc", "matrix500", "small"]


@pytest.fixture(scope="session", autouse=True)
def private_cache_dir(tmp_path_factory):
    """Point the default disk tier at this run's temp directory.

    Tests then never read or fill the user's cache, and every run starts
    cold.  A test that sets its own ``REPRO_CACHE_DIR`` with
    ``monkeypatch`` gets this directory back afterwards.
    """
    with pytest.MonkeyPatch.context() as patch:
        cache_dir = tmp_path_factory.mktemp("repro-cache")
        patch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        yield cache_dir


@pytest.fixture(scope="session")
def measurement(private_cache_dir):
    specs = [benchmark_by_name(name) for name in SUBSET]
    return SuiteMeasurement(
        specs=specs,
        total_instructions=240_000,
        min_benchmark_instructions=30_000,
        store=ArtifactStore(cache_dir=private_cache_dir),
    )
