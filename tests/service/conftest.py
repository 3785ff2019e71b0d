"""Fixtures shared by the service tests."""

import threading

import pytest

import repro.core.optimizer as optimizer_module
from tests.service.fakes import GatedOptimizer


@pytest.fixture
def fake_sweeps(monkeypatch):
    """Every DesignOptimizer the scheduler builds is a closed-gate fake."""
    GatedOptimizer.gate = threading.Event()
    GatedOptimizer.calls = []
    monkeypatch.setattr(optimizer_module, "DesignOptimizer", GatedOptimizer)
    return GatedOptimizer
