"""Design-report tests."""

import pytest

from repro.core import CpiModel, DesignOptimizer, SystemConfig
from repro.core.report import design_point_report


@pytest.fixture(scope="module")
def optimizer(measurement):
    return DesignOptimizer(measurement)


@pytest.fixture(scope="module")
def model(measurement):
    return CpiModel(measurement)


class TestDesignPointReport:
    def test_contains_all_sections(self, optimizer, model):
        point = optimizer.evaluate(
            SystemConfig(icache_kw=8, dcache_kw=8, branch_slots=3, load_slots=3, penalty=10)
        )
        report = design_point_report(point, model)
        assert "L1-I 8 KW" in report
        assert "L1-D misses" in report
        assert "TPI" in report
        assert "ALU feedback loop" in report  # b=l=3 at 8 KW hits the floor

    def test_cache_critical_labelled(self, optimizer, model):
        point = optimizer.evaluate(
            SystemConfig(icache_kw=32, dcache_kw=1, branch_slots=1, load_slots=1, penalty=10)
        )
        report = design_point_report(point, model)
        assert "critical: L1-I access loop" in report

    def test_totals_match_evaluation(self, optimizer, model):
        config = SystemConfig(icache_kw=4, dcache_kw=4, penalty=10)
        point = optimizer.evaluate(config)
        report = design_point_report(point, model)
        assert f"{point.tpi_ns:.2f} ns per instruction" in report
