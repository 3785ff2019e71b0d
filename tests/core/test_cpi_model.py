"""CPI model tests."""

import pytest

from repro.core import CpiModel, SystemConfig
from repro.core.config import BranchScheme, LoadScheme, PenaltyMode


@pytest.fixture(scope="module")
def model(measurement):
    return CpiModel(measurement)


def cfg(**kwargs):
    defaults = dict(icache_kw=4, dcache_kw=4, block_words=4, penalty=10)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


class TestComponents:
    def test_breakdown_total(self, model):
        breakdown = model.breakdown(cfg())
        assert breakdown.total == pytest.approx(
            breakdown.base
            + breakdown.icache
            + breakdown.dcache
            + breakdown.branch
            + breakdown.load
        )
        assert breakdown.base == 1.0

    def test_cache_total(self, model):
        # The memory-hierarchy share is the two sides' own CPI terms.
        breakdown = model.breakdown(cfg())
        assert breakdown.icache + breakdown.dcache == pytest.approx(
            model.icache_cpi(cfg()) + model.dcache_cpi(cfg())
        )

    def test_icache_cpi_scales_with_penalty(self, model):
        low = model.icache_cpi(cfg(penalty=6))
        high = model.icache_cpi(cfg(penalty=18))
        assert high == pytest.approx(3 * low)

    def test_icache_cpi_decreases_with_size(self, model):
        values = [model.icache_cpi(cfg(icache_kw=s)) for s in (1, 4, 16)]
        assert values == sorted(values, reverse=True)

    def test_dcache_cpi_decreases_with_size(self, model):
        values = [model.dcache_cpi(cfg(dcache_kw=s)) for s in (1, 4, 16)]
        assert values == sorted(values, reverse=True)

    def test_zero_slots_static_branch_free(self, model):
        assert model.branch_cpi(cfg(branch_slots=0)) == 0.0

    def test_branch_cpi_increases_with_slots(self, model):
        values = [model.branch_cpi(cfg(branch_slots=b)) for b in (1, 2, 3)]
        assert values == sorted(values)
        assert values[0] > 0

    def test_btb_branch_cpi(self, model):
        static = model.branch_cpi(cfg(branch_slots=2))
        btb = model.branch_cpi(cfg(branch_slots=2, branch_scheme=BranchScheme.BTB))
        assert btb > 0
        # The paper: the schemes are the same order of magnitude, with
        # static usually ahead (the short subset trace leaves the BTB
        # colder than a full session would).
        assert static <= btb <= 4 * static

    def test_load_cpi_increases_with_slots(self, model):
        values = [model.load_cpi(cfg(load_slots=l)) for l in (0, 1, 2, 3)]
        assert values == sorted(values)
        assert values[0] == 0.0

    def test_dynamic_loads_hide_more(self, model):
        for slots in (1, 2, 3):
            static = model.load_cpi(cfg(load_slots=slots))
            dynamic = model.load_cpi(
                cfg(load_slots=slots, load_scheme=LoadScheme.DYNAMIC)
            )
            assert dynamic < static


class TestPenaltyModes:
    def test_ns_penalty_needs_cycle_time(self, model):
        from repro.errors import ConfigurationError

        config = cfg(penalty=35.0, penalty_mode=PenaltyMode.NANOSECONDS)
        with pytest.raises(ConfigurationError):
            model.cpi(config)

    def test_cpi_falls_as_clock_slows_in_ns_mode(self, model):
        # Figure 5's effect: a fixed-ns penalty costs fewer cycles at a
        # longer cycle time.
        config = cfg(penalty=35.0, penalty_mode=PenaltyMode.NANOSECONDS)
        fast = model.cpi(config, cycle_time_ns=3.5)
        slow = model.cpi(config, cycle_time_ns=7.0)
        assert slow < fast
