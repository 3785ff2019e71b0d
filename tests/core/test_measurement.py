"""SuiteMeasurement tests (subset session from conftest)."""

import hashlib
import multiprocessing
import os
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import repro.cache.cubepart as cubepart
from repro.cache.fastsim import addresses_to_blocks
from repro.core import DesignOptimizer, SuiteMeasurement, SystemConfig
from repro.core.measurement import GENERATOR_VERSION
from repro.engine.executor import SweepExecutor
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.utils.units import kw_to_words
from repro.workload import benchmark_by_name

from tests.cache.oracles import set_associative_misses
from tests.cache.test_cubepart import chunked
from tests.core.oracles import (
    eager_btb_stats,
    eager_dstream_addresses,
    eager_istream_blocks,
)


def cube_digest(cube) -> str:
    """sha256 over a cube's every (block, sets) hit curve and its bounds."""
    digest = hashlib.sha256()
    for block in sorted(cube.hits):
        digest.update(f"B{block}:{cube.references[block]};".encode())
        for sets in sorted(cube.hits[block]):
            digest.update(f"S{sets};".encode())
            digest.update(cube.hits[block][sets].astype("<i8").tobytes())
    digest.update(f"W{cube.max_ways}".encode())
    return digest.hexdigest()


def spy_on_driver(monkeypatch):
    """Record every cube-driver call a session makes.

    The spies sit where the session looks the driver up; each call
    appends ``(side, block sizes, capacity words, max ways)`` of the cube
    it built.  Returns the (growing) list.
    """
    import repro.core.measurement as measurement_module

    builds = []

    def spy(real, side):
        def logged(*args, **kwargs):
            cube = real(*args, **kwargs)
            block = cube.block_words[0]
            capacity = block * max(cube.hits[block])
            builds.append((side, cube.block_words, capacity, cube.max_ways))
            return cube

        return logged

    for name, side in (
        ("partitioned_miss_cube", "I"),
        ("partitioned_miss_cube_from_addresses", "D"),
    ):
        monkeypatch.setattr(
            measurement_module, name, spy(getattr(measurement_module, name), side)
        )
    return builds


def twin(session, **overrides):
    """A fresh session over ``session``'s store: the same programs and
    traces (store hits), none of its miss planes.  ``overrides`` change
    constructor arguments the traces do not depend on."""
    arguments = dict(
        specs=session.specs,
        total_instructions=session.total_instructions,
        seed=session.seed,
        quantum_instructions=session.quantum_instructions,
        min_benchmark_instructions=session.min_benchmark_instructions,
        store=session.store,
    )
    return SuiteMeasurement(**{**arguments, **overrides})


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SuiteMeasurement(total_instructions=0)
        with pytest.raises(ConfigurationError):
            SuiteMeasurement(quantum_instructions=0)
        with pytest.raises(ConfigurationError):
            SuiteMeasurement(specs=[])

    def test_budgets_follow_weights(self, measurement):
        # gcc (235.7 M) must get a larger budget than small (16.7 M).
        budgets = dict(zip([s.name for s in measurement.specs], measurement._budgets))
        assert budgets["gcc"] > budgets["small"]

    def test_benchmarks_built_once(self, measurement):
        assert measurement.benchmarks is measurement.benchmarks


class TestAggregates:
    def test_canonical_instructions(self, measurement):
        total = sum(b.trace.instruction_count for b in measurement.benchmarks)
        assert measurement.canonical_instructions == total

    def test_cti_fraction_plausible(self, measurement):
        assert 0.05 < measurement.cti_fraction < 0.25

    def test_load_fraction_plausible(self, measurement):
        loads = sum(b.trace.category_counts["loads"] for b in measurement.benchmarks)
        assert 0.10 < loads / measurement.canonical_instructions < 0.40

    def test_code_expansion_monotone(self, measurement):
        pcts = [measurement.code_expansion_pct(b) for b in (0, 1, 2, 3)]
        assert pcts[0] == 0.0
        assert pcts == sorted(pcts)
        assert 2.0 < pcts[1] < 12.0  # Table 2 anchor: ~6 %

    def test_branch_stats_cached_and_consistent(self, measurement):
        stats = measurement.branch_stats(2)
        assert stats is measurement.branch_stats(2)
        assert stats.cti_count > 0
        assert 0 < stats.predicted_taken_pct < 100

    def test_branch_stats_are_per_session(self):
        # Sessions of different lengths over one store each count their
        # own trace, not whichever session asked first.
        store = ArtifactStore()
        for total in (30_000, 60_000):
            session = SuiteMeasurement(
                specs=[benchmark_by_name("small")],
                total_instructions=total,
                store=store,
            )
            stats = session.branch_stats(1)
            assert stats.instruction_count == session.canonical_instructions
            assert stats.instruction_count >= total

    def test_branch_waste_grows_with_slots(self, measurement):
        cpis = [measurement.branch_stats(b).additional_cpi for b in (1, 2, 3)]
        assert cpis == sorted(cpis)

    def test_btb_stats(self, measurement):
        stats = measurement.btb_stats
        assert stats.ctis > 0
        assert 0.02 < stats.wrong_rate < 0.6

    def test_load_slack_aggregated(self, measurement):
        slack = measurement.load_slack
        assert sum(slack.dynamic_histogram.values()) == sum(
            slack.static_histogram.values()
        )
        assert 0.1 < slack.loads_per_instruction < 0.4


class TestStreamsAndMisses:
    def test_istream_covers_all_benchmarks(self, measurement):
        blocks = eager_istream_blocks(measurement, 0, 4)
        spaces = set(np.unique(blocks >> (36 - 4)))
        assert len(spaces) == len(measurement.specs)

    def test_an_i_build_stores_no_stream(self, measurement):
        # The instruction side streams from the traces into the driver:
        # a build leaves its plane in the session and nothing in the store.
        session = twin(measurement)
        session.benchmarks
        entries = len(session.store)
        session.icache_miss_cube(3, (4, 8))
        assert ("I", 3, 8) in session._planes
        assert len(session.store) == entries
        for block in (4, 8):
            assert (
                session.store.peek(
                    "istream", GENERATOR_VERSION, slots=3, block_words=block
                )
                is None
            )

    def test_dstream_length_matches_refs(self, measurement):
        addresses = measurement.dstream_address_bundle()
        assert len(addresses) == measurement.data_reference_count

    def test_icache_misses_decrease_with_size(self, measurement):
        misses = [measurement.misses("I", 4, s, slots=0) for s in (1, 4, 16)]
        assert misses == sorted(misses, reverse=True)

    def test_icache_misses_increase_with_slots(self, measurement):
        # Code expansion from delay slots can only add misses at a small size.
        assert measurement.misses("I", 4, 1, slots=3) >= measurement.misses(
            "I", 4, 1, slots=0
        )

    def test_dcache_misses_decrease_with_size(self, measurement):
        misses = [measurement.misses("D", 4, s) for s in (1, 4, 16)]
        assert misses == sorted(misses, reverse=True)

    def test_icache_rejects_zero_sets(self, measurement):
        # 0.001 KW with 4-word blocks derives 0 sets; must not silently
        # simulate a degenerate cache.
        with pytest.raises(ConfigurationError, match="L1-I"):
            measurement.misses("I", 4, 0.001, slots=0)

    def test_icache_rejects_non_power_of_two_sets(self, measurement):
        # 1.5 KW / 4-word blocks = 384 sets: not a power of two.
        with pytest.raises(ConfigurationError, match="384 sets"):
            measurement.misses("I", 4, 1.5, slots=0)

    def test_icache_rejects_non_dividing_block(self, measurement):
        with pytest.raises(ConfigurationError, match="L1-I"):
            measurement.misses("I", 3, 1, slots=0)

    def test_dcache_rejects_bad_geometry(self, measurement):
        with pytest.raises(ConfigurationError, match="L1-D"):
            measurement.misses("D", 4, 0.001)
        with pytest.raises(ConfigurationError, match="L1-D"):
            measurement.misses("D", 4, 1.5)
        with pytest.raises(ConfigurationError, match="L1-D"):
            measurement.misses("D", 4, 1, ways=3)  # 256 blocks
        with pytest.raises(ConfigurationError, match="L1-D"):
            measurement.misses("D", 4, 1, ways=0)

    def test_side_and_slots_must_agree(self, measurement):
        with pytest.raises(ConfigurationError, match="slots"):
            measurement.misses("I", 4, 1)
        with pytest.raises(ConfigurationError, match="slots"):
            measurement.misses("D", 4, 1, slots=0)
        with pytest.raises(ConfigurationError, match="side"):
            measurement.misses("L2", 4, 1)

    def test_miss_sweep_matches_single_size_lookups(self, measurement):
        # The cube's direct-mapped axis is the whole size sweep; every
        # single-size lookup must read the same counts.
        iaxis = measurement.icache_miss_cube(0, (4,)).axis(4)
        daxis = measurement.dcache_miss_cube((4,)).axis(4)
        for size in (1, 4, 16):
            sets = kw_to_words(size) // 4
            assert iaxis[sets] == measurement.misses("I", 4, size, slots=0)
            assert daxis[sets] == measurement.misses("D", 4, size)

    def test_miss_sweep_matches_per_size_simulation(self, measurement):
        from repro.cache.fastsim import direct_mapped_misses

        for size in (1, 4, 16):
            sets = kw_to_words(size) // 4
            assert measurement.misses("I", 4, size, slots=0) == (
                direct_mapped_misses(eager_istream_blocks(measurement, 0, 4), sets)
            )
            assert measurement.misses("D", 4, size) == direct_mapped_misses(
                addresses_to_blocks(measurement.dstream_address_bundle(), 4), sets
            )

    def test_miss_axis_is_one_artifact_per_stream_block_pair(
        self, measurement, monkeypatch
    ):
        # Every paper-grid size for one (stream, block) pair must resolve
        # to the same plane: after the first lookup, the remaining sizes
        # run no build and look nothing up in the store.
        measurement.misses("I", 4, 1, slots=1)
        builds = spy_on_driver(monkeypatch)
        lookups = measurement.store.stats().lookups
        for size in (2, 4, 8, 16, 32):
            measurement.misses("I", 4, size, slots=1)
        assert builds == []
        assert measurement.store.stats().lookups == lookups


def streamed_in_windows(monkeypatch, steps):
    """Expand instruction streams ``steps`` trace steps at a time."""
    import repro.core.measurement as measurement_module

    monkeypatch.setattr(measurement_module, "ISTREAM_WINDOW_STEPS", steps)


class TestStreamedIstream:
    """The instruction side a build streams, against the one-shot oracle."""

    @pytest.mark.parametrize("slots", [0, 1, 2, 3])
    def test_chunks_equal_the_eager_stream(self, measurement, monkeypatch, slots):
        # 97-step windows and a 1,000-instruction quantum: every benchmark
        # crosses dozens of window edges, each carrying its previous
        # block, and each quantum holds a few windows' worth of blocks.
        streamed_in_windows(monkeypatch, 97)
        session = twin(measurement, quantum_instructions=1_000)
        assert session.switches >= 50
        assert min(b.trace.steps for b in session.benchmarks) > 50 * 97
        with session.istream_chunks(slots, (1, 4, 32)) as streams:
            for block, chunks in streams.items():
                chunks = list(chunks)
                assert len(chunks) >= session.switches * len(session.specs)
                np.testing.assert_array_equal(
                    np.concatenate(chunks),
                    eager_istream_blocks(session, slots, block),
                )

    def test_peak_heap_does_not_grow_with_the_budget(self, monkeypatch, tmp_path):
        # With small windows and chunks, an I build holds one window's
        # expansion and one chunk with its carry, never the stream:
        # doubling the session's budget must not raise its peak.  (A
        # build from a stream held whole doubles it.)
        streamed_in_windows(monkeypatch, 512)
        specs = [benchmark_by_name(name) for name in ("small", "yacc")]

        def build(total):
            session = SuiteMeasurement(
                specs=specs,
                total_instructions=total,
                min_benchmark_instructions=10_000,
                store=ArtifactStore(cache_dir=tmp_path),
            )
            for bench in session.benchmarks:
                bench.translation(0)
            with chunked(4096):
                tracemalloc.start()
                try:
                    session.warm_miss_cube("I", (4,), 0, slots=0)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            return session._planes["I", 0, 4].references, peak

        (short, short_peak), (long, long_peak) = build(60_000), build(120_000)
        assert long > 1.8 * short > 20 * 4096
        assert long_peak <= 1.25 * short_peak


def btb_in_windows(monkeypatch, steps):
    """Extract the BTB's CTIs ``steps`` trace steps at a time."""
    import repro.core.measurement as measurement_module

    monkeypatch.setattr(measurement_module, "CTI_WINDOW_STEPS", steps)


class TestStreamedBtb:
    """The windowed BTB walk, against one simulate() over the whole stream."""

    @pytest.mark.parametrize("steps", [1, 2, 97, 1 << 16])
    def test_btb_stats_and_ext_btb_size_equal_the_whole_stream(
        self, monkeypatch, private_cache_dir, steps
    ):
        from repro.experiments import ext_btb_size

        # A 1,000-instruction quantum cuts each benchmark into dozens of
        # quanta, so pieces start and end inside windows (and, at one or
        # two steps per window, span many windows).
        btb_in_windows(monkeypatch, steps)
        session = SuiteMeasurement(
            specs=[benchmark_by_name(name) for name in ("small", "yacc")],
            total_instructions=60_000,
            quantum_instructions=1_000,
            min_benchmark_instructions=10_000,
            store=ArtifactStore(cache_dir=private_cache_dir),
        )
        assert session.switches >= 25
        expected = eager_btb_stats(session, ext_btb_size.BTB_SIZES)
        assert session.btb_stats == expected[256]
        data = ext_btb_size.run(session).data
        assert list(data) == list(ext_btb_size.BTB_SIZES)
        for entries, stats in expected.items():
            assert data[entries] == {
                "hit_rate": stats.hit_rate,
                "wrong_rate": stats.wrong_rate,
                "cycles_per_cti_2": stats.cycles_per_cti(2),
            }

    def test_peak_heap_does_not_grow_with_the_budget(self, monkeypatch, tmp_path):
        # With small windows and a fixed quantum, the walk holds a
        # window's and a quantum's CTIs, never the stream: doubling the
        # session's budget must not raise its peak.  (Interleaving whole
        # per-benchmark streams first grows it about 1.5x.)
        btb_in_windows(monkeypatch, 512)
        specs = [benchmark_by_name(name) for name in ("small", "yacc")]

        def walk(total):
            session = SuiteMeasurement(
                specs=specs,
                total_instructions=total,
                quantum_instructions=2_000,
                min_benchmark_instructions=10_000,
                store=ArtifactStore(cache_dir=tmp_path),
            )
            session.canonical_instructions  # the per-block counts, up front
            tracemalloc.start()
            try:
                stats = session.btb_stats
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return stats.ctis, peak

        (short, short_peak), (long, long_peak) = walk(120_000), walk(240_000)
        assert long > 1.8 * short > 40 * 512
        assert long_peak <= 1.25 * short_peak


class TestLeanSession:
    """Between queries a session holds mapped bundles and small aggregates."""

    #: The conftest subset's block names, decoded, take about 3 MB.
    RETAINED_BOUND = 1 << 20

    def test_a_warm_session_retains_under_a_megabyte(self, measurement):
        measurement.dstream_address_bundle()  # the store is warm
        session = twin(measurement)
        tracemalloc.start()
        try:
            session.benchmarks
            session.warm_miss_cube("I", (4,), 0, slots=0)
            session.warm_miss_cube("D", (4,), 0)
            retained = tracemalloc.get_traced_memory()[0]
            [bench.compiled.names for bench in session.benchmarks]
            with_names = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < self.RETAINED_BOUND
        assert with_names - retained > self.RETAINED_BOUND

    def test_names_decode_on_first_read(self, measurement):
        compiled = twin(measurement).benchmarks[0].compiled
        assert "names" not in vars(compiled) and "index" not in vars(compiled)
        assert len(compiled) == len(compiled.lengths)
        assert "names" not in vars(compiled)
        assert compiled.names == measurement.benchmarks[0].compiled.names
        assert all(type(name) is str for name in compiled.names)
        assert compiled.index[compiled.names[-1]] == len(compiled) - 1


class TestMissPlanes:
    def test_direct_mapped_column_matches_axis(self, measurement):
        cube = measurement.dcache_miss_cube((4,))
        plane = cube.plane(4, max_sets=256, max_ways=4)
        axis = cube.axis(4, max_sets=256)
        for num_sets in plane.set_counts:
            assert plane.misses(num_sets, 1) == axis[num_sets]

    def test_plane_matches_dict_lru_oracle(self, measurement):
        plane = measurement.dcache_miss_cube((4,)).plane(4, 256, 4)
        blocks = addresses_to_blocks(measurement.dstream_address_bundle(), 4)
        for num_sets in (1, 16, 256):
            for ways in (2, 4):
                assert plane.misses(num_sets, ways) == set_associative_misses(
                    blocks, num_sets, ways
                )

    def test_iplane_matches_dict_lru_oracle(self, measurement):
        plane = measurement.icache_miss_cube(0, (4,)).plane(4, 64, 2)
        blocks = eager_istream_blocks(measurement, 0, 4)
        assert plane.misses(64, 2) == set_associative_misses(blocks, 64, 2)

    def test_plane_is_one_artifact_per_stream_block_ways(
        self, measurement, monkeypatch
    ):
        measurement.misses("D", 4, 1, ways=2)
        builds = spy_on_driver(monkeypatch)
        lookups = measurement.store.stats().lookups
        for size in (1, 2, 4, 8, 16, 32):
            for ways in (1, 2, 4):
                measurement.misses("D", 4, size, ways=ways)
        assert builds == []
        assert measurement.store.stats().lookups == lookups

    def test_benchmark_rows_regenerate_table1(self, measurement):
        rows = measurement.benchmark_rows()
        assert len(rows) == len(measurement.specs)
        gcc_row = next(r for r in rows if r["name"] == "gcc")
        spec = benchmark_by_name("gcc")
        assert gcc_row["load_pct"] == pytest.approx(spec.load_pct, abs=6.0)
        assert gcc_row["branch_pct"] == pytest.approx(spec.branch_pct, abs=5.0)


class TestMissCubeGuards:
    """The cube on the real suite streams vs. independent algorithms."""

    def test_cube_matches_dict_lru_oracle_on_the_paper_grid(self, measurement):
        # Every point of the block-size study surface (3 blocks x 6
        # capacities x 4 way counts), read through the session accessor
        # from one multi-block cube, against the per-config dict LRU.
        from repro.experiments.ext_associativity import (
            ASSOCIATIVITIES,
            CAPACITIES_KW,
        )
        from repro.experiments.ext_blocksize import BLOCK_SIZES

        measurement.dcache_miss_cube(BLOCK_SIZES)
        addresses = measurement.dstream_address_bundle()
        checked = 0
        for block in BLOCK_SIZES:
            stream = addresses_to_blocks(addresses, block)
            for size_kw in CAPACITIES_KW:
                size_blocks = kw_to_words(size_kw) // block
                for ways in ASSOCIATIVITIES:
                    got = measurement.misses("D", block, size_kw, ways=ways)
                    assert got == set_associative_misses(
                        stream, size_blocks // ways, ways
                    ), (block, size_kw, ways)
                    checked += 1
        assert checked == 72

    def test_production_cubes_are_pinned(self, measurement):
        # The full production cubes (32 KW, 8 ways, every set count down
        # to one set), hashed over every (block, sets) curve.  The dict-LRU
        # guard above reads only the D cube and no set count below 8, and
        # the I cube meets an oracle only at A = 1; a kernel change must
        # leave both digests as they are.
        cubes = {
            "I": measurement.icache_miss_cube(0, (4,)),
            "D": measurement.dcache_miss_cube((4, 8, 16)),
        }
        assert {side: cube_digest(cube) for side, cube in cubes.items()} == {
            "I": "2a7ddf9e535f59b01a1db247b82630571a008f826313a703674e2d49f89e59ab",
            "D": "381246f980accabcba3c4730aa3cbc8bc19b6c73065f74e99a69377e8e585a13",
        }

    def test_cube_axis_matches_retired_direct_mapped_path(self, measurement):
        from repro.cache.fastsim import direct_mapped_miss_sweep

        cube = measurement.icache_miss_cube(0, (4,), capacity_words=1024)
        stream = eager_istream_blocks(measurement, 0, 4)
        sweep = direct_mapped_miss_sweep(stream, cube.set_counts(4))
        assert cube.axis(4) == sweep

    def test_dstream_blocks_is_shift_view_of_addresses(self, measurement):
        # The cube shifts the address bundle per block size; shifting
        # commutes with the interleave, so that is the eagerly
        # interleaved address stream at block granularity.
        bundle = measurement.dstream_address_bundle()
        eager = eager_dstream_addresses(measurement)
        for block in (4, 16):
            np.testing.assert_array_equal(
                addresses_to_blocks(bundle, block),
                addresses_to_blocks(eager, block),
            )

    def test_cube_is_one_artifact_per_stream_family(
        self, measurement, monkeypatch
    ):
        # One multi-block build must answer every later request at any
        # of its block sizes, sizes and ways without another driver call,
        # and a covered miss lookup reads its plane, not the store.
        measurement.dcache_miss_cube((4, 8, 16))
        builds = spy_on_driver(monkeypatch)
        lookups = measurement.store.stats().lookups
        measurement.misses("D", 8, 1)
        measurement.misses("D", 16, 4, ways=4)
        for size in (1, 8, 32):
            for ways in (1, 2, 4, 8):
                measurement.misses("D", 4, size, ways=ways)
        assert measurement.store.stats().lookups == lookups
        measurement.dcache_miss_cube((8,))
        measurement.dcache_miss_cube((4, 16), capacity_words=1024, max_ways=2)
        assert builds == []

    def test_wider_requests_build_only_the_missing_block_sizes(
        self, measurement, monkeypatch
    ):
        # Block sizes an earlier request built are not built again, and
        # what a request returns does not depend on what came before it.
        session = twin(measurement)
        session.icache_miss_cube(2, (4,))
        session.dcache_miss_cube((4,))
        builds = spy_on_driver(monkeypatch)
        cubes = {
            "I": session.icache_miss_cube(2, (4, 8, 16)),
            "D": session.dcache_miss_cube((4, 8, 16)),
        }
        assert builds == [
            ("I", (8, 16), 32 * 1024, 8),
            ("D", (8, 16), 32 * 1024, 8),
        ]
        fresh = twin(measurement)
        assert cube_digest(cubes["I"]) == cube_digest(
            fresh.icache_miss_cube(2, (4, 8, 16))
        )
        assert cube_digest(cubes["D"]) == cube_digest(
            fresh.dcache_miss_cube((4, 8, 16))
        )

    def test_planes_past_the_canonical_bounds_are_built_once(
        self, measurement, monkeypatch
    ):
        # A rebuild widens a plane to the union of its old bounds and the
        # request's, so neither bound has to be built again, and the
        # canonical cube trimmed from it is the pinned one.
        session = twin(measurement)
        builds = spy_on_driver(monkeypatch)
        session.misses("I", 4, 64, slots=0)
        assert builds == [("I", (4,), 64 * 1024, 8)]
        session.misses("I", 4, 32, ways=16, slots=0)
        assert builds[1:] == [("I", (4,), 64 * 1024, 16)]
        session.misses("I", 4, 64, ways=16, slots=0)
        cube = session.icache_miss_cube(0, (4,))
        assert len(builds) == 2
        # The I digest test_production_cubes_are_pinned pins.
        assert cube_digest(cube) == (
            "2a7ddf9e535f59b01a1db247b82630571a008f826313a703674e2d49f89e59ab"
        )

    def test_single_then_multi_block_views_agree(self, measurement):
        lone = measurement.dcache_miss_cube((8,))
        multi = measurement.dcache_miss_cube((4, 8, 16))
        for num_sets in lone.set_counts(8):
            for way in (1, 2, 8):
                assert lone.misses(8, num_sets, way) == multi.misses(
                    8, num_sets, way
                )


class TestDiskCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        specs = [benchmark_by_name("small")]
        first = SuiteMeasurement(
            specs=specs, total_instructions=30_000, min_benchmark_instructions=30_000
        )
        a = first.benchmarks[0].trace
        second = SuiteMeasurement(
            specs=specs, total_instructions=30_000, min_benchmark_instructions=30_000
        )
        b = second.benchmarks[0].trace
        assert np.array_equal(a.block_ids, b.block_ids)
        assert np.array_equal(a.went_taken, b.went_taken)
        assert any(tmp_path.iterdir())

    def _session(self):
        return SuiteMeasurement(
            specs=[benchmark_by_name("small")],
            total_instructions=30_000,
            min_benchmark_instructions=30_000,
        )

    def test_corrupt_entries_fall_back_to_resynthesis(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reference = self._session().benchmarks[0].trace
        corrupted = 0
        for path in tmp_path.glob("*.npy.d/manifest.json"):
            path.write_text("not json")
            corrupted += 1
        assert corrupted > 0
        rebuilt = self._session().benchmarks[0].trace
        assert np.array_equal(reference.block_ids, rebuilt.block_ids)
        assert rebuilt.restarts == reference.restarts

    def test_truncated_arrays_fail_validation_and_resynthesize(
        self, tmp_path, monkeypatch
    ):
        import repro.core.measurement as measurement_module
        from repro.engine.store import ArtifactStore
        from repro.utils.rng import DEFAULT_SEED

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Plant a structurally valid but empty bundle under the exact key
        # the session will derive (the spec digest included).
        planted = ArtifactStore(cache_dir=tmp_path)
        planted.put(
            "trace",
            measurement_module.GENERATOR_VERSION,
            {
                "block_ids": np.array([], dtype=np.int32),
                "went_taken": np.array([], dtype=np.int8),
                "restarts": np.array([0]),
            },
            persist=True,
            **measurement_module._trace_params(
                benchmark_by_name("small"), 30_000, DEFAULT_SEED
            ),
        )
        session = self._session()
        trace = session.benchmarks[0].trace
        assert len(trace.block_ids) > 0
        # The session read the planted bundle, rejected it and re-walked.
        assert session.store.stats().invalidations == 1

    def test_version_bump_invalidates_stale_entries(self, tmp_path, monkeypatch):
        import repro.core.measurement as measurement_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        def entries():
            return set(tmp_path.glob("*.npy.d"))

        reference = self._session().benchmarks[0].trace
        stale_files = entries()
        monkeypatch.setattr(
            measurement_module,
            "GENERATOR_VERSION",
            measurement_module.GENERATOR_VERSION + 1,
        )
        rebuilt = self._session().benchmarks[0].trace
        # New entries were written under the bumped version...
        assert entries() > stale_files
        # ...and the regenerated trace is deterministic regardless.
        assert np.array_equal(reference.block_ids, rebuilt.block_ids)


class TestPartitionedCubePath:
    """Pool-width plumbing: bundle identity and bit-identical cubes."""

    def _session(self, jobs=None):
        session = SuiteMeasurement(
            specs=[benchmark_by_name(n) for n in ("small", "yacc")],
            total_instructions=120_000,
            min_benchmark_instructions=30_000,
        )
        if jobs is not None:
            session.attach_cube_jobs(jobs)
        return session

    def test_attach_cube_jobs_validates(self):
        session = self._session()
        tracer = Tracer()
        session.attach_tracer(tracer)
        with pytest.raises(ConfigurationError):
            session.attach_cube_jobs(0)
        session.attach_cube_jobs(None)
        assert session.executor.jobs == 1 and session.executor.is_serial
        session.attach_cube_jobs(3)
        assert session.executor.jobs == 3 and session.executor.is_parallel
        assert session.executor.tracer is tracer

    def test_address_bundle_matches_eager_stream(self):
        session = self._session()
        assert np.array_equal(
            session.dstream_address_bundle(), eager_dstream_addresses(session)
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("side", ["I", "D"])
    def test_disagreeing_sweep_fails_the_build(
        self, monkeypatch, side, jobs
    ):
        # Every build checks its A=1 bases inside the driver's task
        # list: a sweep one miss off is fatal in this process and on a
        # pool alike.
        import repro.cache.cubepart as cubepart

        from tests.cache.test_cubepart import off_by_one

        monkeypatch.setattr(
            cubepart,
            "direct_mapped_miss_sweep",
            off_by_one(cubepart.direct_mapped_miss_sweep),
        )
        session = self._session(jobs=jobs)
        with pytest.raises(RuntimeError, match="A=1 base disagrees"):
            if side == "I":
                session.icache_miss_cube(1, (4, 8), 4096, 4)
            else:
                session.dcache_miss_cube((4, 8), 4096, 4)

    def test_parallel_cubes_bit_identical_to_serial(self):
        # One job, two jobs and the unchunked serial engine must agree.
        from repro.cache.misscube import miss_cube, miss_cube_from_addresses

        serial = self._session()
        parallel = self._session(jobs=2)
        blocks = (4, 8, 16)
        builds = [
            (
                lambda s: s.icache_miss_cube(1, blocks, 4096, 4),
                lambda s, counts, ways: miss_cube(
                    {B: eager_istream_blocks(s, 1, B) for B in blocks}, counts, ways
                ),
            ),
            (
                lambda s: s.dcache_miss_cube(blocks, 4096, 4),
                lambda s, counts, ways: miss_cube_from_addresses(
                    s.dstream_address_bundle(), blocks, counts, ways
                ),
            ),
        ]
        for build, engine in builds:
            a = build(serial)
            b = build(parallel)
            c = engine(serial, {B: a.set_counts(B) for B in blocks}, a.max_ways)
            for other in (b, c):
                assert dict(a.references) == dict(other.references)
                for B in a.hits:
                    for S in a.hits[B]:
                        assert np.array_equal(a.hits[B][S], other.hits[B][S]), (B, S)


class TestBuildReadsInPlace:
    """A build reads each stream where its producer wrote it: the I side
    from one file per block size, the D side from a hard link to the
    store's address segment, both in a scratch directory of the store's
    disk tier that the build removes."""

    def _session(self, tmp_path):
        return SuiteMeasurement(
            specs=[benchmark_by_name(n) for n in ("small", "yacc")],
            total_instructions=60_000,
            min_benchmark_instructions=20_000,
            store=ArtifactStore(cache_dir=tmp_path),
        )

    @staticmethod
    def spy_on_tasks(monkeypatch, inspect):
        """Call ``inspect(stream file, block size)`` ahead of every
        driver task, while the build's files exist; returns the list of
        what it returned."""
        import repro.cache.cubepart as cubepart

        seen = []
        real = cubepart._run_task

        def logged(item):
            seen.append(inspect(item[0], item[3]))
            return real(item)

        monkeypatch.setattr(cubepart, "_run_task", logged)
        return seen

    @staticmethod
    def scratch_entries(session):
        return [
            p.name
            for p in session.store.disk_dir.iterdir()
            if not p.name.endswith(".npy.d")
        ]

    def test_a_d_build_links_the_store_segment(self, monkeypatch, tmp_path):
        import repro.engine.store as store_module
        import repro.trace.io as io_module

        session = self._session(tmp_path)
        segment = session.dstream_address_bundle().filename  # a warm store
        writers = []

        class Counting(io_module.StreamingBundleWriter):
            def __init__(self, *args, **kwargs):
                writers.append(args)
                super().__init__(*args, **kwargs)

        for module in (store_module, io_module):
            monkeypatch.setattr(module, "StreamingBundleWriter", Counting)
        seen = self.spy_on_tasks(
            monkeypatch,
            lambda stream, B: (
                Path(stream.path).parent,
                os.path.samefile(stream.path, segment),
            ),
        )
        session.dcache_miss_cube((4, 8))
        assert writers == []
        assert len(seen) == 4  # a cube task and a check per block size
        ((scratch, linked),) = set(seen)
        assert linked
        assert scratch.parent == session.store.disk_dir
        assert scratch.name.startswith(".")  # never taken for a bundle

    def test_an_i_build_writes_each_stream_once(self, monkeypatch, tmp_path):
        session = self._session(tmp_path)
        seen = self.spy_on_tasks(
            monkeypatch, lambda stream, B: (B, os.path.getsize(stream.path))
        )
        session.icache_miss_cube(1, (4, 8))
        sizes = dict(seen)
        assert set(sizes) == {4, 8}
        for B, size in sizes.items():
            assert size == 8 * session._planes["I", 1, B].references

    def test_an_eviction_mid_build_leaves_the_plane_identical(
        self, monkeypatch, tmp_path
    ):
        session = self._session(tmp_path)
        expected = twin(session).dcache_miss_cube((4, 8))
        segment = Path(session.dstream_address_bundle().filename)

        def evict(stream, B):
            session.store.invalidate(
                "dstream_addr_bundle",
                GENERATOR_VERSION,
                session=session._session_digest,
            )
            return segment.exists()

        seen = self.spy_on_tasks(monkeypatch, evict)
        got = session.dcache_miss_cube((4, 8))
        assert seen == [False] * 4  # every task ran after the eviction
        assert cube_digest(got) == cube_digest(expected)

    def test_a_segment_evicted_before_the_build_is_streamed_again(
        self, tmp_path
    ):
        # A disk budget deletes the segment while the memory tier still
        # maps it; the build cannot link a deleted file, so it streams
        # the bundle again and links that.
        session = self._session(tmp_path)
        expected = twin(session).dcache_miss_cube((4,))
        segment = Path(session.dstream_address_bundle().filename)
        session.store.max_disk_bytes = 1
        session.store.put("filler", 1, {"x": np.arange(3)}, persist=True)
        assert not segment.exists()
        got = session.dcache_miss_cube((4,))
        assert cube_digest(got) == cube_digest(expected)

    def test_no_scratch_directory_outlives_a_build(self, monkeypatch, tmp_path):
        session = self._session(tmp_path)
        session.icache_miss_cube(0, (4,))
        session.dcache_miss_cube((4,))  # streams the address bundle too
        assert self.scratch_entries(session) == []

        import repro.cache.cubepart as cubepart

        from tests.cache.test_cubepart import off_by_one

        monkeypatch.setattr(
            cubepart,
            "direct_mapped_miss_sweep",
            off_by_one(cubepart.direct_mapped_miss_sweep),
        )
        with pytest.raises(RuntimeError, match="A=1 base disagrees"):
            session.icache_miss_cube(2, (4,))
        with pytest.raises(RuntimeError, match="A=1 base disagrees"):
            session.dcache_miss_cube((8,))
        assert self.scratch_entries(session) == []


#: The driver's task function as the module defines it, before any test
#: patches it.
RUN_TASK = cubepart._run_task


@dataclass(frozen=True)
class PidLog:
    """A picklable stand-in for ``cubepart._run_task`` that appends the
    process id running each task to ``path``, then runs it."""

    path: str

    def __call__(self, item):
        with open(self.path, "a") as out:
            out.write(f"{os.getpid()}\n")
        return RUN_TASK(item)

    def pids(self):
        return [int(pid) for pid in Path(self.path).read_text().split()]


def live_children(baseline=frozenset()):
    """Process ids of this process's live children not in ``baseline``
    (pools that other tests left to the garbage collector)."""
    return {child.pid for child in multiprocessing.active_children()} - baseline


class TestBuildPool:
    """One pool per session: its builds fork it at the first parallel
    build and reuse it for later builds, until a retire (its workers
    reaped) ends the build phase."""

    @pytest.fixture
    def session(self, measurement):
        # A fresh session over the conftest store: its traces are store
        # hits and it has no planes, so every build below runs.
        session = twin(measurement)
        session.attach_cube_jobs(2)
        session.benchmarks
        yield session
        session.executor.retire_pool(wait=True)

    @staticmethod
    def log_tasks(monkeypatch, tmp_path):
        # Patched before the session's first build: a reused worker keeps
        # the module state it forked with.
        log = PidLog(str(tmp_path / "pids"))
        monkeypatch.setattr(cubepart, "_run_task", log)
        return log

    @staticmethod
    def build_all(session):
        """The four I builds and the D build of the paper's five stream
        families."""
        for slots in (0, 1, 2, 3):
            session.icache_miss_cube(slots, (4,))
        session.dcache_miss_cube((4, 8))

    def test_every_build_runs_on_one_pool(self, session, monkeypatch, tmp_path):
        log = self.log_tasks(monkeypatch, tmp_path)
        self.build_all(session)
        pids = log.pids()
        assert len(pids) == 2 * 4 + 2 * 2  # a cube task and a check per block
        assert len(set(pids)) <= 2
        assert os.getpid() not in pids

    def test_a_new_width_retires_the_pool(self, session, monkeypatch, tmp_path):
        log = self.log_tasks(monkeypatch, tmp_path)
        session.icache_miss_cube(0, (4,))
        session.dcache_miss_cube((4,))
        first = set(log.pids())
        session.attach_cube_jobs(3)
        assert not first & live_children()  # reaped, not just told to stop
        session.icache_miss_cube(1, (4,))
        pids = log.pids()
        assert len(pids) == 6
        assert not set(pids[4:]) & first

    def test_a_sweep_ends_the_build_phase(self, session, monkeypatch, tmp_path):
        baseline = frozenset(live_children())
        session.icache_miss_cube(0, (4,))
        assert live_children(baseline)  # the pool outlives a direct build
        optimizer = DesignOptimizer(session)
        optimizer.sweep(
            optimizer.symmetric_grid(
                SystemConfig(penalty=10),
                slot_pairs=((0, 0), (1, 1)),
                side_sizes_kw=(1, 2, 4),
            )
        )
        assert live_children(baseline) == set()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
    )
    def test_no_worker_maps_a_removed_build_directory(
        self, session, monkeypatch, tmp_path
    ):
        # Each build removes its .cube-build-* directory; a reused worker
        # that kept one of its files mapped would pin a paper-scale
        # stream's disk space after the build deleted it.
        log = self.log_tasks(monkeypatch, tmp_path)
        self.build_all(session)
        workers = set(log.pids()) & live_children()
        assert workers  # the pool is still up, waiting for more builds
        assert not list(session.store.disk_dir.glob(".cube-build-*"))
        for pid in workers:
            maps = Path(f"/proc/{pid}/maps").read_text()
            assert ".cube-build-" not in maps, pid

    @staticmethod
    def count_forks(monkeypatch, baseline):
        """Record, at each pool fork, the live children beside it."""
        forks = []
        ensure_pool = SweepExecutor._ensure_pool

        def spy(executor):
            if executor._pool is None:
                forks.append(live_children(baseline))
            return ensure_pool(executor)

        monkeypatch.setattr(SweepExecutor, "_ensure_pool", spy)
        return forks

    @staticmethod
    def cold_session(tmp_path):
        return SuiteMeasurement(
            specs=[benchmark_by_name(name) for name in ("small", "yacc")],
            total_instructions=60_000,
            min_benchmark_instructions=20_000,
            store=ArtifactStore(cache_dir=tmp_path),
            executor=SweepExecutor(jobs=2),
        )

    def test_one_pool_runs_at_a_time(self, monkeypatch, tmp_path):
        # A fig12-shaped run at --jobs 2 over an empty store forks two
        # pools: the trace prefetch's and the builds'.  Each forks only
        # once the previous one's workers are reaped.
        from repro.experiments import fig12

        baseline = frozenset(live_children())
        forks = self.count_forks(monkeypatch, baseline)
        session = self.cold_session(tmp_path)
        try:
            fig12.run(session)
        finally:
            session.executor.retire_pool(wait=True)
        assert forks == [set(), set()]

    def test_one_pool_per_phase(self, monkeypatch, tmp_path):
        # A cold 2-job session forks a pool for its trace prefetch and
        # reaps it before the benchmarks are built; its builds then fork
        # one more, which every build of the warm reuses until the warm
        # ends it.
        baseline = frozenset(live_children())
        forks = self.count_forks(monkeypatch, baseline)
        tracer = Tracer()
        session = self.cold_session(tmp_path)
        session.attach_tracer(tracer)
        try:
            session.benchmarks
            assert len(forks) == 1
            assert live_children(baseline) == set()
            optimizer = DesignOptimizer(session)
            optimizer.sweep(
                optimizer.symmetric_grid(
                    SystemConfig(penalty=10),
                    slot_pairs=((0, 0), (1, 1)),
                    side_sizes_kw=(1, 2, 4),
                )
            )
            assert live_children(baseline) == set()
        finally:
            session.executor.retire_pool(wait=True)
        assert len(forks) == 2
        build_maps = [
            span
            for build in tracer.roots[1:]
            for span in _walk([build])
            if span.name == "executor.map"
        ]
        builds = [
            span
            for span in _walk(tracer.roots)
            if span.name in ("imiss.cube", "dmiss.cube")
        ]
        assert len(builds) == 3 and len(build_maps) == 3
        assert [span.counters.get("pool_forks", 0) for span in build_maps] == [1, 0, 0]


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.children)
