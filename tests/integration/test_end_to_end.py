"""End-to-end integration tests across the full pipeline.

These exercise the complete chain — synthesis → trace → translation →
reference streams → cache/BTB simulation → CPI → timing → TPI — and the
cross-module invariants that no unit test can see.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.fastsim import direct_mapped_misses
from repro.core import (
    CpiModel,
    DesignOptimizer,
    SuiteMeasurement,
    SystemConfig,
    system_cycle_time_ns,
)
from repro.sched import TranslationFile, expand_istream
from repro.trace import execute_program
from repro.workload import benchmark_by_name, synthesize_program

from tests.core.oracles import eager_istream_blocks


@pytest.fixture(scope="module")
def small_session():
    return SuiteMeasurement(
        specs=[benchmark_by_name("small"), benchmark_by_name("linpack")],
        total_instructions=80_000,
        min_benchmark_instructions=40_000,
    )


class TestCrossModuleInvariants:
    def test_zero_slot_stream_matches_canonical_count(self):
        program = synthesize_program(benchmark_by_name("small"))
        trace = execute_program(program, 30_000)
        stream = expand_istream(trace, TranslationFile(trace.compiled, 0))
        assert stream.lengths.sum() == trace.instruction_count

    def test_fetch_count_grows_with_slots_by_at_most_wrongpath_bound(self):
        program = synthesize_program(benchmark_by_name("small"))
        trace = execute_program(program, 30_000)
        base = expand_istream(trace, TranslationFile(trace.compiled, 0)).lengths.sum()
        for slots in (1, 2, 3):
            translation = TranslationFile(trace.compiled, slots)
            fetches = expand_istream(trace, translation).lengths.sum()
            # Every CTI can add at most `slots` extra fetches (replicated,
            # wrong-path, or noop words).
            cti_steps = int(
                (trace.compiled.cti_counts[trace.block_ids] > 0).sum()
            )
            assert base <= fetches <= base + slots * cti_steps

    def test_conflict_free_cache_misses_equal_unique_blocks(self, small_session):
        blocks = eager_istream_blocks(small_session, 0, 4)
        # Remap to dense ids so a power-of-two set count can cover every
        # block without aliasing: misses must then be exactly cold misses.
        _, dense = np.unique(blocks, return_inverse=True)
        unique = int(dense.max()) + 1
        sets = 1 << int(unique - 1).bit_length()
        assert direct_mapped_misses(dense, sets) == unique

    def test_miss_rate_bounded_by_one(self, small_session):
        model = CpiModel(small_session)
        config = SystemConfig(icache_kw=1, dcache_kw=1, block_words=4, penalty=10)
        refs = small_session.data_reference_count
        dcache_misses = (
            model.dcache_cpi(config) * small_session.canonical_instructions / 10
        )
        assert dcache_misses <= refs

    def test_cpi_components_all_nonnegative(self, small_session):
        model = CpiModel(small_session)
        for slots in (0, 3):
            config = SystemConfig(
                icache_kw=2, dcache_kw=2, branch_slots=slots, load_slots=slots, penalty=6
            )
            breakdown = model.breakdown(config)
            assert breakdown.icache >= 0
            assert breakdown.dcache >= 0
            assert breakdown.branch >= 0
            assert breakdown.load >= 0
            assert breakdown.total >= 1.0

    def test_tpi_consistency(self, small_session):
        optimizer = DesignOptimizer(small_session)
        config = SystemConfig(icache_kw=4, dcache_kw=4, penalty=10)
        point = optimizer.evaluate(config)
        assert point.cycle_time_ns == pytest.approx(system_cycle_time_ns(config))
        assert point.tpi_ns == pytest.approx(point.cpi * point.cycle_time_ns)


class TestDeterminism:
    def test_full_pipeline_reproducible(self):
        def run():
            session = SuiteMeasurement(
                specs=[benchmark_by_name("small")],
                total_instructions=30_000,
                min_benchmark_instructions=30_000,
            )
            model = CpiModel(session)
            config = SystemConfig(icache_kw=2, dcache_kw=2, penalty=10)
            return model.cpi(config)

        assert run() == run()

    def test_different_seed_changes_results(self):
        def run(seed):
            session = SuiteMeasurement(
                specs=[benchmark_by_name("small")],
                total_instructions=30_000,
                min_benchmark_instructions=30_000,
                seed=seed,
            )
            return CpiModel(session).cpi(
                SystemConfig(icache_kw=2, dcache_kw=2, penalty=10)
            )

        assert run(1) != run(2)


class TestOptimizationStory:
    def test_headline_narrative_holds_on_mini_suite(self, small_session):
        """Depth 2-3 beats depth 0 even on a two-benchmark session."""
        optimizer = DesignOptimizer(small_session)
        base = SystemConfig(penalty=10)
        best = optimizer.optimize_symmetric(base)
        unpipelined = optimizer.evaluate(
            dataclasses.replace(base, branch_slots=0, load_slots=0)
        )
        assert best.config.branch_slots >= 2
        assert best.tpi_ns < unpipelined.tpi_ns
