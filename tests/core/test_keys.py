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
from repro.engine.store import ArtifactKey, ArtifactStore
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
#: A session digest (``MeasurementSpec.digest()``) for the pinned key.
PINNED_SESSION = "0123456789abcdef01234567"
PINNED_DESIGN_POINT_DIGEST = "2d1b5c7ecfdfe6e947c4ffd3"

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
        session=PINNED_SESSION,
        **config_to_params(PINNED_CONFIG),
    )
    assert key.digest == PINNED_DESIGN_POINT_DIGEST


def test_design_points_are_keyed_by_their_session(tmp_path):
    # Two sessions sharing one store ask for the same configuration:
    # each gets the CPI of its own traces, not the first one's point.
    from repro.core import CpiModel, SuiteMeasurement
    from repro.workload import benchmark_by_name

    store = ArtifactStore(cache_dir=tmp_path)
    specs = [benchmark_by_name(name) for name in ("gcc", "matrix500")]
    config = SystemConfig(icache_kw=2, dcache_kw=2, branch_slots=1, load_slots=1)
    cpis = []
    for instructions in (60_000, 120_000):
        session = SuiteMeasurement(
            specs=specs, total_instructions=instructions, store=store
        )
        point = DesignOptimizer(session).evaluate(config)
        assert point.cpi == CpiModel(session).cpi(
            config, cycle_time_ns=point.cycle_time_ns
        )
        cpis.append(point.cpi)
    assert cpis[0] != cpis[1]
