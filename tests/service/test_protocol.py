"""Query canonicalization: the digest contract behind service memoisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BranchScheme, LoadScheme, PenaltyMode, SystemConfig
from repro.errors import ConfigurationError
from repro.service import protocol
from repro.service.protocol import (
    MAX_GRID_POINTS,
    SweepQuery,
    canonical_grid,
    normalize_config,
    parse_query,
    result_payload,
)


def _q(grid, **extra):
    return parse_query({"grid": grid, **extra}, scales={"quick": 1, "full": 2})


class TestNormalizeConfig:
    def test_defaults_fill_in(self):
        assert normalize_config({}) == SystemConfig()

    def test_int_float_spellings_agree(self):
        a = normalize_config({"icache_kw": 8, "block_words": 4.0})
        b = normalize_config({"icache_kw": 8.0, "block_words": 4})
        assert a == b

    def test_enum_accepts_string_spelling(self):
        by_string = normalize_config({"branch_scheme": "btb"})
        by_member = normalize_config({"branch_scheme": BranchScheme.BTB})
        assert by_string == by_member

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config field"):
            normalize_config({"icache_kb": 8})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigurationError):
            normalize_config({"icache_kw": True})
        with pytest.raises(ConfigurationError):
            normalize_config({"block_words": True})

    def test_fractional_int_field_rejected(self):
        with pytest.raises(ConfigurationError, match="integral"):
            normalize_config({"block_words": 4.5})

    def test_bad_enum_lists_choices(self):
        with pytest.raises(ConfigurationError, match="must be one of"):
            normalize_config({"load_scheme": "psychic"})

    def test_invalid_config_still_validated(self):
        # SystemConfig's own validation (non-power-of-two size) applies.
        with pytest.raises(ConfigurationError):
            normalize_config({"icache_kw": 3})


class TestCanonicalGrid:
    def test_dedup_and_order_independent(self):
        a = normalize_config({"icache_kw": 1})
        b = normalize_config({"icache_kw": 2})
        assert canonical_grid([b, a, b, a]) == canonical_grid([a, b])


class TestParseQuery:
    def test_axes_equals_explicit_list(self):
        compact = _q({"base": {"penalty": 8}, "axes": {"icache_kw": [1, 2]}})
        verbose = _q(
            [
                {"penalty": 8, "icache_kw": 2},
                {"icache_kw": 1, "penalty": 8.0},
            ]
        )
        assert compact.digest == verbose.digest

    def test_tenant_not_in_digest(self):
        grid = [{"icache_kw": 2}]
        assert _q(grid, tenant="a").digest == _q(grid, tenant="b").digest

    def test_scale_objective_in_digest(self):
        grid = [{"icache_kw": 2}]
        assert _q(grid, scale="quick").digest != _q(grid, scale="full").digest

    def test_unknown_query_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown query field"):
            _q([{}], grd=[{}])

    def test_unknown_scale_and_objective_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scale"):
            _q([{}], scale="huge")
        with pytest.raises(ConfigurationError, match="unknown objective"):
            _q([{}], objective="max_cost")

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one point"):
            _q([])
        with pytest.raises(ConfigurationError, match="must not be empty"):
            _q({"axes": {"icache_kw": []}})

    def test_grid_point_ceiling(self):
        with pytest.raises(ConfigurationError, match="caps one query"):
            _q([{"penalty": float(2 * i)} for i in range(MAX_GRID_POINTS + 1)])
        with pytest.raises(ConfigurationError, match="expands past"):
            _q(
                {
                    "axes": {
                        "icache_kw": [2**i for i in range(8)],
                        "dcache_kw": [2**i for i in range(8)],
                        "block_words": [2**i for i in range(7)],
                        "penalty": list(range(1, 17)),
                    }
                }
            )

    def test_bad_tenant_rejected(self):
        for bad in ("", "a/b", "x" * 65, 7):
            with pytest.raises(ConfigurationError):
                _q([{}], tenant=bad)

    def test_result_payload_best_is_min_tpi(self):
        from repro.core.optimizer import DesignPoint

        query = _q([{"icache_kw": 1}, {"icache_kw": 2}])
        points = [
            DesignPoint(config=c, cpi=2.0 - i * 0.5, cycle_time_ns=2.0)
            for i, c in enumerate(query.configs)
        ]
        payload = result_payload(query, points)
        assert payload["point_count"] == 2
        best = min(points, key=lambda p: p.tpi_ns)
        assert payload["best"]["tpi_ns"] == pytest.approx(best.tpi_ns)


class TestObjectivesAndBudgets:
    def test_objective_aliases_share_a_digest(self):
        # Memoisation contract: every spelling of the same question
        # lands on the same cached answer.
        grid = [{"icache_kw": 2}]
        base = _q(grid, objective="min_tpi").digest
        assert _q(grid, objective="tpi").digest == base
        assert _q(grid, objective="TPI").digest == base
        assert _q(grid).digest == base  # omitted objective defaults to min_tpi
        assert (
            _q(grid, objective="pareto").digest
            == _q(grid, objective="frontier").digest
        )
        assert _q(grid, objective="edp").digest == _q(grid, objective="min_edp").digest

    def test_distinct_objectives_get_distinct_digests(self):
        grid = [{"icache_kw": 2}]
        digests = {
            _q(grid, objective=o).digest
            for o in ("min_tpi", "min_epi", "min_edp", "frontier")
        }
        assert len(digests) == 4

    def test_budgets_change_the_digest(self):
        grid = [{"icache_kw": 2}]
        free = _q(grid)
        area = _q(grid, max_area_cm2=30.0)
        power = _q(grid, max_power_w=5.0)
        assert len({free.digest, area.digest, power.digest}) == 3
        # 30 vs 30.0 are the same budget.
        assert _q(grid, max_area_cm2=30).digest == area.digest

    def test_nonpositive_budgets_rejected(self):
        for field in ("max_area_cm2", "max_power_w"):
            with pytest.raises(ConfigurationError, match="positive"):
                _q([{}], **{field: 0})
            with pytest.raises(ConfigurationError, match="positive"):
                _q([{}], **{field: -2.5})

    def _scored_points(self, query):
        from repro.core.optimizer import DesignPoint

        return [
            DesignPoint(
                config=c,
                cpi=2.0 - i * 0.5,
                cycle_time_ns=2.0,
                epi_nj=10.0 + i,  # faster points burn more energy
                area_cm2=20.0 + 10.0 * i,
            )
            for i, c in enumerate(query.configs)
        ]

    def test_payload_carries_physical_axes(self):
        query = _q([{"icache_kw": 1}, {"icache_kw": 2}])
        payload = result_payload(query, self._scored_points(query))
        for point in payload["points"]:
            assert point["edp"] == pytest.approx(point["tpi_ns"] * point["epi_nj"])
            assert point["power_w"] == pytest.approx(
                point["epi_nj"] / point["tpi_ns"]
            )
        assert {"epi_nj", "area_cm2"} <= set(payload["points"][0])

    def test_frontier_objective_has_no_best(self):
        query = _q([{"icache_kw": 1}, {"icache_kw": 2}], objective="frontier")
        payload = result_payload(query, self._scored_points(query))
        assert payload["best"] is None
        # Fast-but-hot vs slow-but-lean: both survive the frontier.
        assert payload["frontier_count"] == 2

    def test_budget_filters_best_and_frontier(self):
        query = _q(
            [{"icache_kw": 1}, {"icache_kw": 2}],
            objective="min_tpi",
            max_area_cm2=25.0,
        )
        points = self._scored_points(query)
        payload = result_payload(query, points)
        assert payload["point_count"] == 2  # all points still reported
        assert payload["eligible_count"] == 1
        assert payload["frontier_count"] == 1
        assert payload["best"]["area_cm2"] == pytest.approx(20.0)

    def test_overconstrained_budget_yields_empty_answer(self):
        query = _q([{"icache_kw": 1}], objective="min_epi", max_power_w=0.001)
        payload = result_payload(query, self._scored_points(query))
        assert payload["eligible_count"] == 0
        assert payload["frontier"] == []
        assert payload["best"] is None

    def test_min_epi_best_differs_from_min_tpi(self):
        grid = [{"icache_kw": 1}, {"icache_kw": 2}]
        tpi_query = _q(grid, objective="min_tpi")
        epi_query = _q(grid, objective="min_epi")
        points = self._scored_points(tpi_query)
        tpi_best = result_payload(tpi_query, points)["best"]
        epi_best = result_payload(epi_query, points)["best"]
        assert tpi_best["tpi_ns"] < epi_best["tpi_ns"]
        assert epi_best["epi_nj"] < tpi_best["epi_nj"]


# -- the digest property -------------------------------------------------------

_SIZES = st.sampled_from([1, 2, 4, 8, 16])
_BLOCKS = st.sampled_from([1, 2, 4, 8, 16])
_SLOTS = st.integers(min_value=0, max_value=3)
_PENALTY = st.integers(min_value=1, max_value=32)


@st.composite
def _grids(draw):
    """A small canonical grid as plain param dicts."""
    n = draw(st.integers(min_value=1, max_value=4))
    grid = []
    for _ in range(n):
        grid.append(
            {
                "icache_kw": draw(_SIZES),
                "dcache_kw": draw(_SIZES),
                "block_words": draw(_BLOCKS),
                "branch_slots": draw(_SLOTS),
                "load_slots": draw(_SLOTS),
                "penalty": draw(_PENALTY),
                "penalty_mode": draw(st.sampled_from(PenaltyMode)),
                "branch_scheme": draw(st.sampled_from(BranchScheme)),
                "load_scheme": draw(st.sampled_from(LoadScheme)),
            }
        )
    return grid


@st.composite
def _spelled(draw, grid):
    """One textual spelling of a grid: reorder, duplicate, respell values."""
    entries = list(grid)
    entries = draw(st.permutations(entries))
    if draw(st.booleans()) and entries:
        entries = entries + [draw(st.sampled_from(entries))]  # duplicate
    spelled = []
    for entry in entries:
        params = {}
        for name, value in entry.items():
            if isinstance(value, (int, float)) and draw(st.booleans()):
                # 8 vs 8.0 — int/float spellings of the same number
                value = float(value) if isinstance(value, int) else value
            if hasattr(value, "value") and draw(st.booleans()):
                value = value.value  # enum member vs string spelling
            if name == "block_words" and value == SystemConfig().block_words:
                if draw(st.booleans()):
                    continue  # explicit default vs omitted
            params[name] = value
        spelled.append(params)
    return spelled


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_semantically_identical_grids_share_a_digest(data):
    grid = data.draw(_grids())
    first = data.draw(_spelled(grid))
    second = data.draw(_spelled(grid))
    scales = {"quick": 1}
    qa = parse_query({"grid": first}, scales=scales)
    qb = parse_query({"grid": second}, scales=scales)
    assert qa.digest == qb.digest
    assert qa.configs == qb.configs


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_distinct_grids_get_distinct_digests(data):
    grid = data.draw(_grids())
    query = parse_query({"grid": grid}, scales={"quick": 1})
    # Any single-field perturbation that survives canonicalization must
    # move the digest.
    bumped = [dict(p) for p in grid]
    bumped[0]["penalty"] = bumped[0]["penalty"] + 64
    other = parse_query({"grid": bumped}, scales={"quick": 1})
    assert other.digest != query.digest


def test_digest_is_stable_across_processes():
    """A digest is a pure function of the query (no per-process salt)."""
    query = SweepQuery(
        scale="quick",
        configs=canonical_grid([normalize_config({"icache_kw": 2})]),
    )
    assert query.digest == SweepQuery(
        scale="quick",
        configs=canonical_grid([normalize_config({"icache_kw": 2.0})]),
    ).digest
    assert len(query.digest) == 24


def test_digest_is_pinned_and_computed_once():
    """A digest recorded with the ``dataclasses.asdict`` renderer, its
    payload carrying generator version 5 and lowering version 1."""
    query = parse_query(
        {
            "grid": {
                "base": {"penalty": 12.5, "branch_slots": 1, "branch_scheme": "btb"},
                "axes": {
                    "icache_kw": [1, 4],
                    "dcache_kw": [2, 8],
                    "load_slots": [0, 3],
                },
            },
            "scale": "quick",
            "objective": "edp",
            "max_area_cm2": 40,
        }
    )
    assert query.digest == "75d2e429d5f8a11c8f72fd0b"
    assert vars(query)["digest"] is query.digest  # cached on the instance


@pytest.mark.parametrize("constant", ["GENERATOR_VERSION", "LOWERING_VERSION"])
def test_digest_names_the_code_that_computes_the_answer(monkeypatch, constant):
    # The trace and compiled artifacts are keyed by these versions; a
    # memoised answer must be too, or a service restarted over the same
    # cache after a generator change would serve the old generator's.
    import repro.core.measurement
    import repro.trace.compiled

    assert protocol.GENERATOR_VERSION == repro.core.measurement.GENERATOR_VERSION
    assert protocol.LOWERING_VERSION == repro.trace.compiled.LOWERING_VERSION
    spelled = {"grid": [{"icache_kw": 2}], "scale": "quick"}
    before = parse_query(spelled).digest
    monkeypatch.setattr(protocol, constant, getattr(protocol, constant) + 1)
    assert parse_query(spelled).digest != before
