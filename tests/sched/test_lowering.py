"""The lowered program against its instruction-level oracles.

A :class:`~repro.trace.compiled.CompiledProgram` lowers every
slot-independent scheduling fact once; translation files and load-slack
histograms are then array expressions over those facts.  These tests pin
both to the per-block / per-instruction loops they replaced
(:mod:`tests.sched.oracles`, which walk the program's instruction lists),
on synthesized Table 1 programs, check that :func:`schedule_ctis` reads
the same split off any lowering, and check that a lowering round-trips
through its flat bundle.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.program.cfg import Program
from repro.sched.branch_schedule import schedule_ctis
from repro.sched.load_schedule import analyze_load_slack
from repro.sched.translation import TranslationFile
from repro.trace.compiled import (
    BlockKind,
    CompiledProgram,
    compiled_arrays_valid,
    unfillable_jumps,
)
from repro.trace.executor import TraceExecutor
from repro.trace.io import load_arrays, save_arrays
from repro.utils.rng import DEFAULT_SEED
from repro.workload import TABLE1_SUITE, benchmark_by_name, synthesize_program
from tests.sched.oracles import (
    TRANSLATION_ARRAYS,
    jump_is_unfillable,
    load_slack_reference,
    suite_load_slack_reference,
    translation_reference,
)
from tests.trace.test_executor import call_program, loop_program

#: gcc (the largest program, ~32K blocks) has its own explicit tests.
NAMES = [spec.name for spec in TABLE1_SUITE if spec.name != "gcc"]
SEEDS = (DEFAULT_SEED, 7, 1992)
SLOTS = range(5)


@lru_cache(maxsize=6)
def program_and_lowering(name: str, seed: int):
    program = synthesize_program(benchmark_by_name(name), seed=seed)
    return program, CompiledProgram(program)


def lowered(compiled: CompiledProgram) -> CompiledProgram:
    """The same program rebuilt from its bundle."""
    return CompiledProgram.from_arrays(compiled.as_arrays())


def assert_translation_matches(program: Program, compiled: CompiledProgram, slots: int) -> None:
    translation = TranslationFile(lowered(compiled), slots)
    expected = translation_reference(program, slots)
    for name in TRANSLATION_ARRAYS:
        got = getattr(translation, name)
        assert got.dtype == expected[name].dtype, (name, slots)
        assert np.array_equal(got, expected[name]), (name, slots)


def assert_same_analysis(got, expected) -> None:
    # Histogram key order is part of the contract: fig6/fig7 dump the
    # dicts unsorted.
    assert list(got.static_histogram.items()) == list(expected.static_histogram.items())
    assert list(got.dynamic_histogram.items()) == list(expected.dynamic_histogram.items())
    assert got.loads_per_instruction == expected.loads_per_instruction


class TestTranslation:
    @settings(max_examples=5, deadline=None)
    @given(name=st.sampled_from(NAMES), seed=st.sampled_from(SEEDS))
    def test_matches_schedule_reference(self, name, seed):
        program, compiled = program_and_lowering(name, seed)
        for slots in SLOTS:
            assert_translation_matches(program, compiled, slots)

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1992])
    def test_gcc_matches_schedule_reference(self, seed):
        program, compiled = program_and_lowering("gcc", seed)
        assert len(compiled) > 30_000
        for slots in SLOTS:
            assert_translation_matches(program, compiled, slots)

    @pytest.mark.parametrize("build", [loop_program, call_program])
    def test_hand_built_programs_match(self, build):
        # loop_program's latch branches to itself: a backward edge with
        # target == block id.
        program = build()
        for slots in SLOTS:
            assert_translation_matches(program, CompiledProgram(program), slots)

    @pytest.mark.parametrize("slots", [1, 2, 3])
    def test_schedule_ctis_on_a_session_lowering(self, measurement, slots):
        # A session's lowerings are rebuilt from their bundles.
        for bench in measurement.benchmarks:
            translation = TranslationFile(bench.compiled, slots)
            schedules = schedule_ctis(bench.compiled, slots)
            ctis = np.flatnonzero(bench.compiled.kinds != BlockKind.FALLTHROUGH)
            assert sorted(schedules) == ctis.tolist()
            for block_id, schedule in schedules.items():
                assert schedule.r == translation.r_values[block_id]
                assert schedule.s == translation.s_values[block_id]
                assert schedule.predicted_taken == translation.predicted_taken[block_id]
                assert schedule.indirect == translation.indirect[block_id]

    def test_unfillable_mask_matches_scalar_hash(self):
        # Ids well past the int32 overflow of id * 2654435761.
        ids = np.concatenate((np.arange(5_000), np.arange(40_000, 40_500), [2**20, 2**24]))
        mask = unfillable_jumps(ids)
        assert mask.tolist() == [jump_is_unfillable(int(i)) for i in ids]
        assert 0.40 < mask[:5_000].mean() < 0.50


class TestLoadSlack:
    @settings(max_examples=5, deadline=None)
    @given(
        name=st.sampled_from(NAMES),
        seed=st.sampled_from(SEEDS),
        budget=st.integers(min_value=500, max_value=30_000),
    )
    def test_weighted_matches_instruction_loop(self, name, seed, budget):
        program, compiled = program_and_lowering(name, seed)
        # A short walk leaves most blocks unexecuted (zero weight).
        counts = TraceExecutor(compiled, seed=seed).run(budget).block_counts
        assert_same_analysis(
            analyze_load_slack(lowered(compiled), counts),
            load_slack_reference(program, counts),
        )

    def test_unweighted_matches_instruction_loop(self):
        program, compiled = program_and_lowering("yacc", DEFAULT_SEED)
        assert_same_analysis(
            analyze_load_slack(lowered(compiled)), load_slack_reference(program)
        )

    def test_suite_matches_instruction_loop(self, measurement):
        benches = measurement.benchmarks
        programs = [
            program_and_lowering(bench.spec.name, measurement.seed)[0]
            for bench in benches
        ]
        expected = suite_load_slack_reference(
            programs,
            [bench.trace.block_counts for bench in benches],
            loads=sum(bench.trace.category_counts["loads"] for bench in benches),
            instructions=measurement.canonical_instructions,
        )
        assert_same_analysis(measurement.load_slack, expected)


class TestBundle:
    @pytest.fixture(scope="class")
    def compiled(self):
        # tex has computed gotos: a non-empty CSR target list.
        _, compiled = program_and_lowering("tex", DEFAULT_SEED)
        assert len(compiled.indirect_flat) > 0 and len(compiled.load_blocks) > 0
        return compiled

    def assert_round_trip(self, original, back):
        expected = original.as_arrays()
        got = back.as_arrays()
        assert set(got) == set(expected)
        for name, array in expected.items():
            assert got[name].dtype == array.dtype, name
            assert np.array_equal(got[name], array), name
        assert back.names == original.names
        assert all(type(name) is str for name in back.names)
        assert back.entry_id == original.entry_id and type(back.entry_id) is int
        assert back.text_base == original.text_base and type(back.text_base) is int
        assert back.name == original.name and type(back.name) is str
        for name in ("indirect_offsets", "indirect_flat"):
            assert np.array_equal(getattr(back, name), getattr(original, name)), name
        assert np.array_equal(back.canonical_addresses, original.canonical_addresses)

    def test_round_trip_in_memory(self, compiled):
        self.assert_round_trip(compiled, lowered(compiled))

    def test_round_trip_through_memory_maps(self, compiled, tmp_path):
        save_arrays("compiled", compiled.as_arrays(), cache_dir=tmp_path)
        back = CompiledProgram.from_arrays(load_arrays("compiled", cache_dir=tmp_path))
        self.assert_round_trip(compiled, back)
        ours = TraceExecutor(back, seed=3).run(50_000)
        theirs = TraceExecutor(compiled, seed=3).run(50_000)
        assert np.array_equal(ours.block_ids, theirs.block_ids)
        assert np.array_equal(ours.went_taken, theirs.went_taken)
        assert ours.restarts == theirs.restarts

    def test_incomplete_bundles_rejected(self, compiled):
        arrays = compiled.as_arrays()
        assert compiled_arrays_valid(arrays)
        for name in arrays:
            truncated = dict(arrays, **{name: arrays[name][:-1]})
            assert not compiled_arrays_valid(truncated), name
            missing = {k: v for k, v in arrays.items() if k != name}
            assert not compiled_arrays_valid(missing), name
        widened = dict(arrays, lengths=arrays["lengths"].astype(np.int64))
        assert not compiled_arrays_valid(widened)
        with pytest.raises(TraceError, match="complete"):
            CompiledProgram.from_arrays(widened)
