"""The repo benchmark's wrap targets must resolve against this tree.

``perfbench/layers.py`` wraps program entry points by module path and
qualified name, and its installer fails on a missing one.  The
benchmark's own tests sit outside this suite, so deleting or renaming a
wrapped function would otherwise pass here and break only the benchmark.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def test_every_wrap_target_resolves(layers):
    targets = layers.LayerCollector().targets()
    assert targets
    for target in targets:
        owner = importlib.import_module(target.module)
        for part in target.qualname.split("."):
            assert hasattr(owner, part), f"{target.module}.{target.qualname}"
            owner = getattr(owner, part)
        assert callable(owner), f"{target.module}.{target.qualname}"


def test_host_facts_report_the_numpy_backend():
    from repro.kernels import kernel_backend

    assert kernel_backend() == "numpy"
