"""Artifact keys stay put: the shared renderer and technology digest."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    BranchScheme,
    LoadScheme,
    PenaltyMode,
    SystemConfig,
    config_to_params,
)
from repro.core.optimizer import DESIGN_POINT_VERSION, DesignOptimizer, tech_digest
from repro.engine.store import ArtifactKey
from repro.physical.technology import DEFAULT_PHYSICAL
from repro.service import protocol
from repro.timing.technology import DEFAULT_TECHNOLOGY
from tests.core.oracles import asdict_params

#: Recorded with the ``dataclasses.asdict`` renderings.
DEFAULT_TECH_DIGEST = "55cb74a074754c3c68417b3e"
PINNED_CONFIG = SystemConfig(
    icache_kw=4,
    dcache_kw=16.0,
    block_words=8,
    branch_slots=1,
    load_slots=3,
    penalty=12.5,
    penalty_mode=PenaltyMode.NANOSECONDS,
    branch_scheme=BranchScheme.BTB,
    load_scheme=LoadScheme.DYNAMIC,
)
PINNED_DESIGN_POINT_DIGEST = "fdb439fa62bf71d36e47a878"

# Sizes and penalties come as ints and floats: 4 and 4.0 render (and so
# hash) differently, so the renderer must keep each value's type.
_KW = st.sampled_from([0.5, 1, 2, 4, 8, 16, 32]).flatmap(
    lambda kw: st.sampled_from([kw, float(kw)])
)
_CONFIGS = st.builds(
    SystemConfig,
    icache_kw=_KW,
    dcache_kw=_KW,
    block_words=st.sampled_from([1, 2, 4, 8, 16]),
    branch_slots=st.integers(min_value=0, max_value=3),
    load_slots=st.integers(min_value=0, max_value=3),
    penalty=st.one_of(
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.25, max_value=64.0, allow_nan=False),
    ),
    penalty_mode=st.sampled_from(PenaltyMode),
    branch_scheme=st.sampled_from(BranchScheme),
    load_scheme=st.sampled_from(LoadScheme),
)


@settings(max_examples=200, deadline=None)
@given(config=_CONFIGS)
def test_config_to_params_matches_the_asdict_rendering(config):
    params = config_to_params(config)
    expected = asdict_params(config)
    assert params == expected
    assert list(params) == list(expected)
    assert [type(value) for value in params.values()] == [
        type(value) for value in expected.values()
    ]


def test_jobs_layer_renders_through_the_same_function():
    from repro.jobs import runner

    assert runner.config_to_params is config_to_params


def test_optimizer_and_service_share_one_tech_digest(measurement):
    optimizer = DesignOptimizer(measurement)
    assert optimizer._tech_digest == DEFAULT_TECH_DIGEST
    assert protocol._TECH_DIGEST == DEFAULT_TECH_DIGEST
    assert tech_digest(DEFAULT_TECHNOLOGY, DEFAULT_PHYSICAL) == DEFAULT_TECH_DIGEST
    faster = replace(DEFAULT_TECHNOLOGY, sram_access_ns=4.0)
    assert tech_digest(faster, DEFAULT_PHYSICAL) != DEFAULT_TECH_DIGEST


def test_design_point_key_is_pinned():
    key = ArtifactKey.make(
        "design_point",
        DESIGN_POINT_VERSION,
        tech=tech_digest(DEFAULT_TECHNOLOGY, DEFAULT_PHYSICAL),
        **config_to_params(PINNED_CONFIG),
    )
    assert key.digest == PINNED_DESIGN_POINT_DIGEST
