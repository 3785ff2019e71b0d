"""Extension-experiment tests (subset session)."""

import pytest

from repro.core import CpiModel, SystemConfig
from repro.experiments import ext_associativity, ext_blocksize, ext_btb_size, ext_quantum
from tests.core.test_measurement import spy_on_driver


class TestAssociativityExtension:
    @pytest.fixture(scope="class")
    def result(self, measurement):
        return ext_associativity.run(measurement)

    def test_misses_fall_with_ways(self, result):
        points = result.data["points"]
        assert points[(1, 1)]["misses"] >= points[(1, 2)]["misses"] >= points[(1, 4)]["misses"]

    def test_deep_pipeline_absorbs_way_select(self, result):
        points = result.data["points"]
        # At depth 3 the ALU loop hides the associative access entirely.
        assert points[(3, 2)]["cycle_ns"] == pytest.approx(3.5, abs=0.01)
        # At depth 1 the way mux lands on the critical path.
        assert points[(1, 2)]["cycle_ns"] > points[(1, 1)]["cycle_ns"]

    def test_section6_conjecture(self, result):
        # Associativity must pay more at depth 3 than at depth 1.
        assert result.data["benefit_deep_ns"] > result.data["benefit_shallow_ns"]


class TestBlocksizeExtension:
    @pytest.fixture(scope="class")
    def result(self, measurement):
        return ext_blocksize.run(measurement)

    def test_every_rate_has_a_best_block(self, result):
        for rate in (4, 2, 1):
            assert result.data[rate]["best_block"] in (4, 8, 16)

    def test_penalties_follow_refill_model(self, result):
        per_block = result.data[1]["per_block"]
        assert per_block[16]["penalty_cycles"] == 18
        assert per_block[4]["penalty_cycles"] == 6

    def test_slow_refill_prefers_smaller_blocks(self, result):
        assert result.data[1]["best_block"] <= result.data[4]["best_block"]


class TestBtbSizeExtension:
    @pytest.fixture(scope="class")
    def result(self, measurement):
        return ext_btb_size.run(measurement)

    def test_bigger_btb_predicts_better(self, result):
        wrong = [result.data[n]["wrong_rate"] for n in (64, 256, 1024, 4096)]
        assert wrong == sorted(wrong, reverse=True)

    def test_hit_rate_rises_with_entries(self, result):
        hits = [result.data[n]["hit_rate"] for n in (64, 256, 4096)]
        assert hits == sorted(hits)


class TestL2Extension:
    @pytest.fixture(scope="class")
    def result(self, measurement):
        from repro.experiments import ext_l2

        return ext_l2.run(measurement)

    def test_bigger_l2_never_hurts(self, result):
        for l1_kw in (1, 8, 32):
            rates = [result.data[(l1_kw, l2)]["l2_miss_rate"] for l2 in (64, 256, 1024)]
            assert rates == sorted(rates, reverse=True)

    def test_effective_penalty_formula(self, result):
        from repro.experiments.ext_l2 import L2_HIT_CYCLES, MEMORY_CYCLES

        point = result.data[(8, 256)]
        assert point["effective_penalty"] == pytest.approx(
            L2_HIT_CYCLES + point["l2_miss_rate"] * MEMORY_CYCLES
        )

    def test_l1_misses_shrink_with_l1_size(self, result):
        misses = [result.data[(kw, 256)]["l1_misses"] for kw in (1, 8, 32)]
        assert misses == sorted(misses, reverse=True)


class TestEnergyExtension:
    @pytest.fixture(scope="class")
    def result(self, measurement):
        from repro.experiments import ext_energy

        return ext_energy.run(measurement)

    def test_tpi_optimum_is_leakage_invariant(self, result):
        kws = {result.data[f"{s:g}"]["tpi_best_kw"] for s in (0.25, 1.0, 4.0)}
        assert len(kws) == 1

    def test_energy_optimum_shrinks_with_leakage(self, result):
        kws = [result.data[f"{s:g}"]["epi_best_kw"] for s in (0.25, 1.0, 4.0)]
        assert kws == sorted(kws, reverse=True)
        assert kws[-1] < kws[0]  # the strict drop at high leakage

    def test_divergence_is_recorded(self, result):
        divergence = result.data["divergence"]
        assert divergence["diverges"] is True
        assert (
            divergence["epi_best_kw_high_leakage"] < divergence["tpi_best_kw"]
        )

    def test_tpi_best_pays_more_energy_as_leakage_grows(self, result):
        epis = [result.data[f"{s:g}"]["tpi_best_epi_nj"] for s in (0.25, 1.0, 4.0)]
        assert epis == sorted(epis)
        assert epis[0] < epis[-1]

    def test_static_share_grows_with_leakage(self, result):
        # Compared at the endpoints only: each scale re-optimizes the
        # geometry, so the share at the (moving) optimum need not be
        # monotone in between.
        shares = [
            result.data[f"{s:g}"]["epi_best_static_fraction"]
            for s in (0.25, 1.0, 4.0)
        ]
        assert 0.0 < shares[0] < shares[-1] < 1.0


class TestQuantumExtension:
    def test_the_run_quantum_reads_the_session(self, measurement, monkeypatch):
        # The session's planes at the study's geometry exist (fig3 and
        # fig5 build them in a full run), so only the other quanta build:
        # one I and one D plane each.
        config = SystemConfig(
            icache_kw=8, dcache_kw=8, block_words=4, branch_slots=2, load_slots=2
        )
        model = CpiModel(measurement)
        model.icache_cpi(config)
        model.dcache_cpi(config)
        builds = spy_on_driver(monkeypatch)
        result = ext_quantum.run(measurement)
        assert measurement.quantum_instructions in ext_quantum.QUANTA
        others = len(ext_quantum.QUANTA) - 1
        assert [side for side, *_ in builds].count("I") == others
        assert [side for side, *_ in builds].count("D") == others
        row = result.data[measurement.quantum_instructions]
        assert row["icache_cpi"] == model.icache_cpi(config)
        assert row["dcache_cpi"] == model.dcache_cpi(config)
