"""The test run keeps its disk tier to itself (``tests/conftest.py``)."""

from repro.trace.io import default_cache_dir


def test_default_cache_dir_is_under_the_runs_temp_dir(tmp_path_factory):
    base = tmp_path_factory.getbasetemp().resolve()
    assert default_cache_dir().resolve().is_relative_to(base)
