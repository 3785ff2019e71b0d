"""Paper-shape anchors on the full Table 1 suite at quick scale.

Every table and figure the paper reports, plus the associativity,
block-size and BTB-size extensions, is regenerated from one
module-scoped session over all sixteen benchmarks and checked against
the paper's qualitative claims: two or three cache pipeline stages win,
with the optimum at b = l = 2-3 and a medium-to-large cache.  Table 1
alone needs all sixteen benchmarks, so the module builds its own session
instead of using the four-benchmark subset of ``tests/conftest.py``.
EXPERIMENTS.md holds the full-scale quantitative comparison.
"""

import pytest

from repro.core import SuiteMeasurement
from repro.experiments import (
    ext_associativity,
    ext_blocksize,
    ext_btb_size,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)


@pytest.fixture(scope="module")
def session():
    return SuiteMeasurement(total_instructions=400_000)


# -- Tables 1-6 ----------------------------------------------------------------


def test_table1_benchmark_characteristics(session):
    rows = table1.run(session).data["rows"]
    assert len(rows) == 16
    # The suite-wide mix should land near Table 1's totals.
    total = sum(r["instructions"] for r in rows)
    loads = sum(r["load_pct"] * r["instructions"] for r in rows) / total
    assert loads == pytest.approx(24.7, abs=4.0)


def test_table2_code_expansion(session):
    expansion = table2.run(session).data["expansion_pct"]
    # Paper: 6 / 14 / 23 %; require the same regime and ordering.
    assert 3.0 < expansion[1] < 9.0
    assert 9.0 < expansion[2] < 18.0
    assert 16.0 < expansion[3] < 28.0


def test_table3_static_prediction(session):
    data = table3.run(session).data
    # Paper: 3 slots cost ~0.087 CPI, far below the 0.39 worst case.
    assert data[3]["additional_cpi"] < 0.16
    assert data[1]["additional_cpi"] < data[2]["additional_cpi"]
    assert data[3]["taken_accuracy"] > 0.85


def test_table4_btb(session):
    result = table4.run(session)
    per_delay = result.data["per_delay"]
    # Paper: 1.44/1.65/1.85 cycles per CTI; same regime expected.
    assert 1.1 < per_delay[1]["cycles_per_cti"] < 2.2
    assert per_delay[3]["cycles_per_cti"] > per_delay[1]["cycles_per_cti"]
    # BTB loses (delay + 1) per wrong CTI: spacing must be ~wrong_rate.
    spacing = per_delay[2]["cycles_per_cti"] - per_delay[1]["cycles_per_cti"]
    assert spacing == pytest.approx(result.data["wrong_rate"], rel=0.05)


def test_table5_load_delays(session):
    data = table5.run(session).data
    # Paper: static 0.21/0.62/1.21 cycles per load; dynamic far lower.
    assert data[1]["static_cycles_per_load"] == pytest.approx(0.21, abs=0.10)
    assert data[2]["static_cycles_per_load"] == pytest.approx(0.62, abs=0.20)
    assert data[3]["static_cycles_per_load"] == pytest.approx(1.21, abs=0.35)
    for slots in (1, 2, 3):
        assert (
            data[slots]["dynamic_cycles_per_load"]
            < 0.5 * data[slots]["static_cycles_per_load"]
        )


def test_table6_cycle_times(session):
    cycle_ns = table6.run(session).data["cycle_ns"]
    # Paper's stated anchors.
    assert cycle_ns[(1, 3)] == pytest.approx(3.5, abs=0.01)
    assert all(cycle_ns[(s, 0)] > 10.0 for s in (1, 2, 4, 8, 16, 32))
    assert cycle_ns[(32, 3)] == pytest.approx(3.5, abs=0.01)
    assert cycle_ns[(32, 2)] > 3.5


# -- Figures 3-13 --------------------------------------------------------------


def test_fig3_icache_delay_slot_cost(session):
    icache = fig3.run(session).data["icache_cpi"]
    # Paper: at 1 KW each slot adds measurable miss CPI; at 32 KW little.
    per_slot_small = (icache[3][1] - icache[0][1]) / 3
    per_slot_large = (icache[3][32] - icache[0][32]) / 3
    assert 0.01 < per_slot_small < 0.10
    assert per_slot_large < per_slot_small
    # Curves fall with size for every slot count.
    for slots in (0, 1, 2, 3):
        assert icache[slots][1] > icache[slots][32]


def test_fig4_double_and_add_a_slot(session):
    cpi = fig4.run(session).data["cpi"]
    # Paper: over 1-16 KW, doubling the cache and adding a slot wins
    # outright.  Our synthetic traces reproduce the win at the small end
    # and near break-even (within 0.07 CPI) in the mid range, where the
    # shorter traces flatten the miss curve (see EXPERIMENTS.md).
    assert cpi[1][2] < cpi[0][1]
    for slots, size in ((1, 2), (2, 4), (2, 8)):
        assert cpi[slots + 1][size * 2] < cpi[slots][size] + 0.07


def test_fig5_cpi_vs_cycle_time(session):
    cpi = fig5.run(session).data["cpi"]
    for size, curve in cpi.items():
        values = list(curve.values())
        assert values == sorted(values, reverse=True)
    # Smaller caches are affected more (steeper drop).
    drop_small = cpi[1][3.5] - cpi[1][14.0]
    drop_large = cpi[16][3.5] - cpi[16][14.0]
    assert drop_small > drop_large


def test_fig6_dynamic_epsilon(session):
    assert fig6.run(session).data["fraction_ge_3"] > 0.80  # paper: over 80 %


def test_fig7_static_epsilon(session):
    # Paper: the static distribution has most mass at small epsilon.
    assert fig7.run(session).data["fraction_ge_3"] < 0.65


def test_fig8_load_slots_vs_dcache(session):
    cpi = fig8.run(session).data["cpi"]
    for slots in (0, 3):
        assert cpi[slots][1] > cpi[slots][32]
    # Vertical offsets approximate the Table 5 static increments.
    offset = cpi[2][8] - cpi[0][8]
    assert offset == pytest.approx(0.16, abs=0.08)


def test_fig9_penalty_sweep(session):
    cpi = fig9.run(session).data["cpi"]
    for size in (1, 8, 32):
        assert cpi[6][size] < cpi[10][size] < cpi[18][size]
    # Higher penalty steepens the size dependence.
    assert (cpi[18][1] - cpi[18][32]) > (cpi[6][1] - cpi[6][32])


def test_fig10_floorplan(session):
    data = fig10.run(session).data
    assert data[32]["chips"] > data[1]["chips"]
    assert data[32]["t_l1_ns"] > data[1]["t_l1_ns"]
    # Access times stay within the regime Table 6 needs.
    assert 5.0 < data[1]["t_l1_ns"] < 8.0
    assert 7.0 < data[32]["t_l1_ns"] < 11.0


def test_fig11_required_reduction(session):
    req = fig11.run(session).data["required_reduction_pct"]
    # Paper: two delay cycles need < 10 %; need grows with cache size.
    assert all(req[2][size] < 10.0 for size in (1, 2, 4, 8, 16, 32))
    assert req[2][32] > req[2][1]


def test_fig12_tpi_optimum(session):
    data = fig12.run(session).data
    best = data["best"]
    tpi = data["tpi"]
    # Paper: deep pipelines dominate; optimum at b=l in {2,3} with a
    # medium-to-large cache, cycle time at/near the ALU floor.
    assert best["b"] in (2, 3) and best["l"] in (2, 3)
    assert best["combined_kw"] >= 16
    assert best["t_cpu_ns"] < 3.7
    assert tpi[(2, 2)][16] < 0.55 * tpi[(0, 0)][16]
    # Dynamic load scheduling improves the optimum (paper: 6.8 -> 6.2).
    assert data["best_dynamic"]["tpi_ns"] < best["tpi_ns"]


def test_fig13_low_penalty_optimum(session):
    data = fig13.run(session).data
    best = data["best"]
    # Paper: cheaper refill shrinks the optimal cache and favours b=l=2.
    assert best["b"] == 2 and best["l"] == 2
    assert best["combined_kw"] <= 32
    assert best["tpi_ns"] == pytest.approx(6.61, abs=0.6)
    asym = data["best_asymmetric"]
    assert asym["tpi_ns"] <= best["tpi_ns"] + 1e-9


# -- Extensions (Section 6 and ablations) --------------------------------------


def test_ext_associativity_section6(session):
    data = ext_associativity.run(session).data
    # The conjecture the paper closes with must hold: associativity pays
    # more once the cache pipeline hides the longer access.
    assert data["benefit_deep_ns"] > data["benefit_shallow_ns"]
    assert data["benefit_deep_ns"] > 0


def test_ext_blocksize_selection(session):
    data = ext_blocksize.run(session).data
    # Fast refill tolerates (or prefers) bigger blocks than slow refill.
    assert data[1]["best_block"] <= data[4]["best_block"]
    # The refill arithmetic matches the paper's 6/10/18 construction.
    assert data[1]["per_block"][16]["penalty_cycles"] == 18


def test_ext_btb_size(session):
    data = ext_btb_size.run(session).data
    wrong = [data[n]["wrong_rate"] for n in (64, 256, 1024, 4096)]
    assert wrong == sorted(wrong, reverse=True)
    # 256 entries is visibly capacity-limited on this workload.
    assert data[256]["wrong_rate"] > data[4096]["wrong_rate"] + 0.01
