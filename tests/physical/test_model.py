"""PhysicalModel: measured-count EPI decomposition against a session."""

import pytest

from repro.core import SystemConfig
from repro.errors import ConfigurationError
from repro.physical import PhysicalModel, PhysicalTechnology, system_area_cm2
from repro.physical.energy import read_energy_nj, refill_energy_nj, static_power_w


@pytest.fixture(scope="module")
def model(measurement):
    return PhysicalModel(measurement)


CONFIG = SystemConfig(icache_kw=8, dcache_kw=8, branch_slots=2, load_slots=2)


class TestBreakdown:
    def test_components_sum_to_epi(self, model):
        breakdown = model.breakdown(CONFIG, tpi_ns=5.0)
        assert breakdown.epi_nj == pytest.approx(
            breakdown.fetch_nj
            + breakdown.data_nj
            + breakdown.refill_nj
            + breakdown.static_nj
        )

    def test_fetch_is_one_read_per_instruction(self, model):
        breakdown = model.breakdown(CONFIG, tpi_ns=5.0)
        assert breakdown.fetch_nj == pytest.approx(read_energy_nj(8))

    def test_data_follows_measured_reference_rate(self, model, measurement):
        breakdown = model.breakdown(CONFIG, tpi_ns=5.0)
        refs_per_instr = (
            measurement.data_reference_count / measurement.canonical_instructions
        )
        assert breakdown.data_nj == pytest.approx(read_energy_nj(8) * refs_per_instr)

    def test_refill_follows_measured_misses(self, model, measurement):
        breakdown = model.breakdown(CONFIG, tpi_ns=5.0)
        misses = measurement.misses(
            "I", CONFIG.block_words, CONFIG.icache_kw, slots=CONFIG.branch_slots
        ) + measurement.misses("D", CONFIG.block_words, CONFIG.dcache_kw)
        expected = (
            refill_energy_nj(CONFIG.block_words)
            * misses
            / measurement.canonical_instructions
        )
        assert breakdown.refill_nj == pytest.approx(expected)

    def test_static_integrates_power_over_tpi(self, model):
        # 1 W x 1 ns = 1 nJ: doubling TPI doubles exactly the static term.
        slow = model.breakdown(CONFIG, tpi_ns=10.0)
        fast = model.breakdown(CONFIG, tpi_ns=5.0)
        assert slow.static_nj == pytest.approx(2 * fast.static_nj)
        assert slow.epi_nj - slow.static_nj == pytest.approx(
            fast.epi_nj - fast.static_nj
        )
        assert fast.static_nj == pytest.approx(2 * static_power_w(8) * 5.0)

    def test_area_is_tpi_independent(self, model):
        assert model.breakdown(CONFIG, tpi_ns=10.0).area_cm2 == pytest.approx(
            model.breakdown(CONFIG, tpi_ns=5.0).area_cm2
        )
        assert system_area_cm2(CONFIG) == pytest.approx(
            model.breakdown(CONFIG, tpi_ns=5.0).area_cm2
        )

    def test_rejects_nonpositive_tpi(self, model):
        with pytest.raises(ConfigurationError):
            model.breakdown(CONFIG, tpi_ns=0.0)


class TestLeakageScale:
    def test_scales_only_the_static_term(self, measurement):
        base = PhysicalModel(measurement).breakdown(CONFIG, tpi_ns=5.0)
        leaky = PhysicalModel(
            measurement, phys=PhysicalTechnology(leakage_scale=4.0)
        ).breakdown(CONFIG, tpi_ns=5.0)
        assert leaky.static_nj == pytest.approx(4 * base.static_nj)
        assert leaky.epi_nj - leaky.static_nj == pytest.approx(
            base.epi_nj - base.static_nj
        )
        assert leaky.static_fraction > base.static_fraction


class TestSpans:
    def test_breakdown_emits_physical_score_span(self, measurement):
        from repro.obs import Tracer

        tracer = Tracer()
        previous = measurement.tracer
        measurement.attach_tracer(tracer)
        try:
            PhysicalModel(measurement).breakdown(CONFIG, tpi_ns=5.0)
        finally:
            measurement.attach_tracer(previous)
        names = [span["name"] for span in tracer.to_list()]
        assert "physical.score" in names
