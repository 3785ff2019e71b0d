"""Pareto frontier and budgets — property-tested.

The frontier implementation is a sorted scan; the oracle here is the
definition itself: an O(n^2) all-pairs dominance check over random point
clouds.  Budget selection is checked against its definitional oracle
(the budget pick equals the best of the filtered set).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.frontier import (
    dominates,
    objective_value,
    pareto_frontier,
    within_budgets,
)
from repro.core.optimizer import DesignPoint, point_order_key
from repro.errors import ConfigurationError

# Small positive grids so random clouds actually collide (equal values
# exercise the "non-dominated tie" paths a continuous distribution
# would never hit).
_LEVEL = st.integers(min_value=1, max_value=6)


@st.composite
def _points(draw):
    cpi = draw(_LEVEL)
    cycle = draw(_LEVEL)
    return DesignPoint(
        config=SystemConfig(
            icache_kw=draw(st.sampled_from((1, 2, 4, 8))),
            dcache_kw=draw(st.sampled_from((1, 2, 4, 8))),
            branch_slots=draw(st.integers(min_value=0, max_value=3)),
        ),
        cpi=float(cpi),
        cycle_time_ns=float(cycle),
        epi_nj=float(draw(_LEVEL)),
        area_cm2=float(draw(_LEVEL)),
    )


_CLOUDS = st.lists(_points(), min_size=1, max_size=24)


def _brute_force_frontier(points):
    return [
        p
        for p in points
        if not any(dominates(q, p) for q in points)
    ]


class TestDominates:
    def test_strictly_better_everywhere(self):
        a = DesignPoint(SystemConfig(), cpi=1.0, cycle_time_ns=1.0, epi_nj=1.0, area_cm2=1.0)
        b = DesignPoint(SystemConfig(), cpi=2.0, cycle_time_ns=1.0, epi_nj=2.0, area_cm2=2.0)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_equal_vectors_do_not_dominate(self):
        a = DesignPoint(SystemConfig(), cpi=1.0, cycle_time_ns=2.0, epi_nj=3.0, area_cm2=4.0)
        b = DesignPoint(
            SystemConfig(icache_kw=16), cpi=2.0, cycle_time_ns=1.0, epi_nj=3.0, area_cm2=4.0
        )
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_tradeoff_is_incomparable(self):
        a = DesignPoint(SystemConfig(), cpi=1.0, cycle_time_ns=1.0, epi_nj=5.0, area_cm2=1.0)
        b = DesignPoint(SystemConfig(), cpi=5.0, cycle_time_ns=1.0, epi_nj=1.0, area_cm2=1.0)
        assert not dominates(a, b)
        assert not dominates(b, a)


class TestParetoFrontier:
    @settings(max_examples=200, deadline=None)
    @given(_CLOUDS)
    def test_matches_brute_force_oracle(self, cloud):
        expected = sorted(
            (point_order_key(p) for p in _brute_force_frontier(cloud))
        )
        actual = [point_order_key(p) for p in pareto_frontier(cloud)]
        assert sorted(actual) == expected

    @settings(max_examples=200, deadline=None)
    @given(_CLOUDS)
    def test_order_independent_and_deterministically_sorted(self, cloud):
        forward = pareto_frontier(cloud)
        backward = pareto_frontier(list(reversed(cloud)))
        keys = [point_order_key(p) for p in forward]
        assert keys == [point_order_key(p) for p in backward]
        assert keys == sorted(keys)

    @settings(max_examples=100, deadline=None)
    @given(_CLOUDS)
    def test_frontier_members_are_mutually_non_dominated(self, cloud):
        frontier = pareto_frontier(cloud)
        for a in frontier:
            assert not any(dominates(b, a) for b in frontier)

    def test_empty_set_has_empty_frontier(self):
        assert pareto_frontier([]) == []


class TestWithinBudgets:
    @settings(max_examples=200, deadline=None)
    @given(_CLOUDS, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=10))
    def test_budget_pick_matches_filtered_best(self, cloud, max_area, max_power):
        eligible = within_budgets(
            cloud, max_area_cm2=float(max_area), max_power_w=float(max_power)
        )
        assert eligible == [
            p
            for p in cloud
            if p.area_cm2 <= max_area and p.power_w <= max_power
        ]
        if eligible:
            pick = min(
                eligible,
                key=lambda p: (objective_value(p, "tpi"), point_order_key(p)),
            )
            oracle = min(
                (p for p in cloud if p.area_cm2 <= max_area and p.power_w <= max_power),
                key=lambda p: (p.tpi_ns, point_order_key(p)),
            )
            assert point_order_key(pick) == point_order_key(oracle)

    def test_none_leaves_axis_unconstrained(self):
        cloud = [
            DesignPoint(SystemConfig(), cpi=1.0, cycle_time_ns=1.0, epi_nj=9.0, area_cm2=99.0)
        ]
        assert within_budgets(cloud) == cloud
        assert within_budgets(cloud, max_power_w=100.0) == cloud

    def test_rejects_nonpositive_budgets(self):
        with pytest.raises(ConfigurationError):
            within_budgets([], max_area_cm2=0.0)
        with pytest.raises(ConfigurationError):
            within_budgets([], max_power_w=-1.0)


class TestObjectiveValue:
    def test_known_objectives(self):
        point = DesignPoint(
            SystemConfig(), cpi=2.0, cycle_time_ns=3.0, epi_nj=5.0, area_cm2=7.0
        )
        assert objective_value(point, "tpi") == pytest.approx(6.0)
        assert objective_value(point, "epi") == pytest.approx(5.0)
        assert objective_value(point, "edp") == pytest.approx(30.0)

    def test_unknown_objective_is_an_error(self):
        point = DesignPoint(SystemConfig(), cpi=1.0, cycle_time_ns=1.0)
        with pytest.raises(ConfigurationError):
            objective_value(point, "cost")
