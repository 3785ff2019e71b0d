"""Warm starts: a session over a filled disk store never synthesizes.

The first session over a store synthesizes and lowers every program and
persists the compiled-program bundles next to the traces.  A second
session over the same store must answer every query identically with
program synthesis and lowering made impossible, and the bundles' keys
must separate specs and seeds instead of colliding.
"""

import dataclasses
import hashlib
import shutil

import numpy as np
import pytest

import repro.core.measurement as measurement_module
import repro.workload as workload_package
import repro.workload.synthesis as synthesis_module
from repro.core import BranchScheme, SuiteMeasurement, SystemConfig
from repro.core.optimizer import DesignOptimizer
from repro.engine.executor import SweepExecutor
from repro.engine.store import ArtifactStore
from repro.obs.tracer import Tracer
from repro.trace.compiled import LOWERING_VERSION, CompiledProgram
from repro.trace.io import load_arrays, save_arrays
from repro.workload import benchmark_by_name

SPECS = [benchmark_by_name(name) for name in ("small", "linpack", "yacc")]
SLOTS = (0, 1, 2, 3)


def session_over(cache_dir, specs=SPECS, seed=1992, tracer=None):
    return SuiteMeasurement(
        specs=specs,
        total_instructions=60_000,
        min_benchmark_instructions=10_000,
        seed=seed,
        store=ArtifactStore(cache_dir=cache_dir),
        executor=SweepExecutor(jobs=1),
        tracer=tracer,
    )


def cube_digest(cube) -> str:
    digest = hashlib.sha256()
    for block in sorted(cube.hits):
        digest.update(f"B{block}:{cube.references[block]};".encode())
        for sets in sorted(cube.hits[block]):
            digest.update(f"S{sets};".encode())
            digest.update(np.asarray(cube.hits[block][sets], dtype="<i8").tobytes())
    return digest.hexdigest()


def outputs(session):
    """Every query a warm start must answer identically."""
    optimizer = DesignOptimizer(session)
    grid = [
        config
        for scheme in BranchScheme
        for config in optimizer.asymmetric_grid(
            SystemConfig(branch_scheme=scheme),
            icache_sizes_kw=(1, 8),
            dcache_sizes_kw=(2, 16),
            load_slots=(0, 2),
        )
    ]
    slack = session.load_slack
    return {
        "canonical_instructions": session.canonical_instructions,
        "icubes": [cube_digest(session.icache_miss_cube(s, (4,))) for s in SLOTS],
        "dcube": cube_digest(session.dcache_miss_cube((4, 8))),
        "branch_stats": [session.branch_stats(b) for b in (1, 2, 3)],
        "expansion": [session.code_expansion_pct(b) for b in (1, 2, 3)],
        "load_slack": (
            list(slack.static_histogram.items()),
            list(slack.dynamic_histogram.items()),
            slack.loads_per_instruction,
        ),
        "btb": session.btb_stats,
        "points": [
            (p.config, p.cpi, p.cycle_time_ns, p.epi_nj, p.area_cm2)
            for p in optimizer.select(grid, objective="tpi").points
        ],
    }


def refuse(*args, **kwargs):
    raise AssertionError("a warm start synthesized or lowered a program")


@pytest.fixture
def no_synthesis(monkeypatch):
    """Make program synthesis and lowering raise."""
    for module in (measurement_module, workload_package, synthesis_module):
        monkeypatch.setattr(module, "synthesize_program", refuse)
    monkeypatch.setattr(CompiledProgram, "__init__", refuse)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A store filled by one cold session, and that session's answers."""
    cache = tmp_path_factory.mktemp("warm-start") / "cache"
    tracer = Tracer()
    session = session_over(cache, tracer=tracer)
    return cache, outputs(session), tracer


def copy_of(cache, tmp_path):
    target = tmp_path / "cache"
    shutil.copytree(cache, target)
    return target


def spans_named(tracer, name):
    found = []

    def walk(spans):
        for span in spans:
            if span.name == name:
                found.append(span)
            walk(span.children)

    walk(tracer.roots)
    return found


def test_cold_session_attributes_synthesis(cold):
    _, _, tracer = cold
    spans = spans_named(tracer, "program.synthesize")
    assert sum(span.counters["programs"] for span in spans) == len(SPECS)
    (build,) = spans_named(tracer, "session.build")
    assert all(span in build.children for span in spans)
    for span in spans:
        # Generation and lowering are timed apart, with their sizes.
        generate, lower = span.children
        assert (generate.name, lower.name) == ("program.generate", "program.lower")
        assert generate.attrs == lower.attrs == span.attrs
        assert generate.counters == lower.counters
        assert generate.counters["blocks"] > 0
        assert generate.counters["instructions"] > generate.counters["blocks"]


def test_warm_session_is_identical_without_synthesis(cold, no_synthesis):
    cache, expected, _ = cold
    tracer = Tracer()
    session = session_over(cache, tracer=tracer)
    assert outputs(session) == expected
    assert not spans_named(tracer, "program.synthesize")
    assert all(bench.compiled.program is None for bench in session.benchmarks)
    stats = session.store.stats()
    assert stats.disk_hits >= 2 * len(SPECS)  # a program and a trace each


def test_different_shape_misses_instead_of_colliding(cold, no_synthesis):
    cache, _, _ = cold
    spec = SPECS[0]
    reshaped = dataclasses.replace(
        spec, shape=dataclasses.replace(spec.shape, procedures=spec.shape.procedures + 1)
    )
    assert reshaped.name == spec.name
    session = session_over(cache, specs=[reshaped])
    with pytest.raises(AssertionError, match="synthesized or lowered"):
        session.benchmarks


def test_different_seed_misses_instead_of_colliding(cold, no_synthesis):
    cache, _, _ = cold
    session = session_over(cache, specs=SPECS[:1], seed=7)
    with pytest.raises(AssertionError, match="synthesized or lowered"):
        session.benchmarks


def test_truncated_bundle_fails_validation_and_is_rebuilt(cold, tmp_path):
    cache, expected, _ = cold
    cache = copy_of(cache, tmp_path)
    probe = session_over(cache)
    digest = probe._compiled_key(SPECS[1]).digest
    arrays = {name: np.array(a) for name, a in load_arrays(digest, cache_dir=cache).items()}
    truncated = dict(arrays, load_eps_static=arrays["load_eps_static"][:-1])
    save_arrays(digest, truncated, cache_dir=cache)

    session = session_over(cache)
    assert outputs(session) == expected
    stats = session.store.stats()
    assert stats.invalidations == 1
    rebuilt = load_arrays(digest, cache_dir=cache)
    assert set(rebuilt) == set(arrays)
    for name, array in arrays.items():
        assert np.array_equal(rebuilt[name], array), name


def test_compiled_key_versions(cold):
    cache, _, _ = cold
    session = session_over(cache)
    key = session._compiled_key(SPECS[0])
    assert key.kind == "compiled"
    assert key.version == LOWERING_VERSION
    params = dict(key.params)
    assert params["generator"] == measurement_module.GENERATOR_VERSION
    assert params["seed"] == 1992
