"""SuiteMeasurement tests (subset session from conftest)."""

import numpy as np
import pytest

from repro.core import SuiteMeasurement
from repro.errors import ConfigurationError
from repro.utils.units import kw_to_words
from repro.workload import benchmark_by_name

from tests.cache.oracles import set_associative_misses


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
        assert 0.10 < measurement.load_fraction < 0.40

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
        blocks = measurement.istream_blocks(0, 4)
        spaces = set(np.unique(blocks >> (36 - 4)))
        assert len(spaces) == len(measurement.specs)

    def test_istream_memoized(self, measurement):
        assert measurement.istream_blocks(0, 4) is measurement.istream_blocks(0, 4)

    def test_dstream_length_matches_refs(self, measurement):
        blocks = measurement.dstream_blocks(4)
        assert len(blocks) == measurement.data_reference_count

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
                direct_mapped_misses(measurement.istream_blocks(0, 4), sets)
            )
            assert measurement.misses("D", 4, size) == direct_mapped_misses(
                measurement.dstream_blocks(4), sets
            )

    def test_miss_axis_is_one_artifact_per_stream_block_pair(self, measurement):
        # Every paper-grid size for one (stream, block) pair must resolve
        # to the same whole-cube artifact: after the first lookup, the
        # remaining sizes are pure store hits (no new build runs).
        measurement.misses("I", 4, 1, slots=1)
        before = measurement.store.stats().misses
        for size in (2, 4, 8, 16, 32):
            measurement.misses("I", 4, size, slots=1)
        assert measurement.store.stats().misses == before


class TestMissPlanes:
    def test_direct_mapped_column_matches_axis(self, measurement):
        cube = measurement.dcache_miss_cube((4,))
        plane = cube.plane(4, max_sets=256, max_ways=4)
        axis = cube.axis(4, max_sets=256)
        for num_sets in plane.set_counts:
            assert plane.misses(num_sets, 1) == axis[num_sets]

    def test_plane_matches_dict_lru_oracle(self, measurement):
        plane = measurement.dcache_miss_cube((4,)).plane(4, 256, 4)
        blocks = measurement.dstream_blocks(4)
        for num_sets in (1, 16, 256):
            for ways in (2, 4):
                assert plane.misses(num_sets, ways) == set_associative_misses(
                    blocks, num_sets, ways
                )

    def test_iplane_matches_dict_lru_oracle(self, measurement):
        plane = measurement.icache_miss_cube(0, (4,)).plane(4, 64, 2)
        blocks = measurement.istream_blocks(0, 4)
        assert plane.misses(64, 2) == set_associative_misses(blocks, 64, 2)

    def test_plane_is_one_artifact_per_stream_block_ways(self, measurement):
        measurement.misses("D", 4, 1, ways=2)
        before = measurement.store.stats().misses
        for size in (1, 2, 4, 8, 16, 32):
            for ways in (1, 2, 4):
                measurement.misses("D", 4, size, ways=ways)
        assert measurement.store.stats().misses == before

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
        checked = 0
        for block in BLOCK_SIZES:
            stream = measurement.dstream_blocks(block)
            for size_kw in CAPACITIES_KW:
                size_blocks = kw_to_words(size_kw) // block
                for ways in ASSOCIATIVITIES:
                    got = measurement.misses("D", block, size_kw, ways=ways)
                    assert got == set_associative_misses(
                        stream, size_blocks // ways, ways
                    ), (block, size_kw, ways)
                    checked += 1
        assert checked == 72

    def test_cube_axis_matches_retired_direct_mapped_path(self, measurement):
        from repro.cache.fastsim import direct_mapped_miss_sweep

        cube = measurement.icache_miss_cube(0, (4,), capacity_words=1024)
        stream = measurement.istream_blocks(0, 4)
        sweep = direct_mapped_miss_sweep(stream, cube.set_counts(4))
        assert cube.axis(4) == sweep

    def test_dstream_blocks_is_shift_view_of_addresses(self, measurement):
        from repro.cache.fastsim import addresses_to_blocks

        addresses = measurement.dstream_addresses()
        for block in (4, 16):
            np.testing.assert_array_equal(
                measurement.dstream_blocks(block),
                addresses_to_blocks(addresses, block),
            )

    def test_cube_is_one_artifact_per_stream_family(self, measurement):
        # One multi-block cube build must answer every later request at
        # any of its block sizes, sizes and ways without another store
        # build (the cube index routes single-block requests to it).
        measurement.dcache_miss_cube((4, 8, 16))
        before = measurement.store.stats().misses
        measurement.misses("D", 8, 1)
        measurement.misses("D", 16, 4, ways=4)
        for size in (1, 8, 32):
            for ways in (1, 2, 4, 8):
                measurement.misses("D", 4, size, ways=ways)
        assert measurement.store.stats().misses == before

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
        for path in tmp_path.glob("*.npz"):
            path.write_bytes(b"truncated garbage")
            corrupted += 1
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
        # the session will derive.
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
            bench="small",
            budget=30_000,
            seed=DEFAULT_SEED,
        )
        trace = self._session().benchmarks[0].trace
        assert len(trace.block_ids) > 0

    def test_version_bump_invalidates_stale_entries(self, tmp_path, monkeypatch):
        import repro.core.measurement as measurement_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        def entries():
            return set(tmp_path.glob("*.npz")) | set(tmp_path.glob("*.npy.d"))

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


class TestSharedTraceBuffers:
    """share_trace_buffers(): shm export, worker pickup, mmap skip."""

    def _memory_session(self):
        return SuiteMeasurement(
            specs=[benchmark_by_name("small")],
            total_instructions=30_000,
            min_benchmark_instructions=30_000,
            use_disk_cache=False,
        )

    def test_export_and_worker_pickup(self):
        from repro.engine.shm import SHARED_BUNDLES

        parent = self._memory_session()
        reference_ids = parent.benchmarks[0].trace.block_ids.copy()
        group = parent.spec().digest()
        try:
            assert parent.share_trace_buffers() == 1
            # The parent itself now reads from the shared segments.
            parent_ids = parent.benchmarks[0].trace.block_ids
            assert not parent_ids.flags.writeable
            assert np.array_equal(parent_ids, reference_ids)
            # A rehydrating "worker" (same spec, fresh empty store)
            # attaches the shared bundle: no synthesis, no store lookups.
            worker = self._memory_session()
            trace = worker.benchmarks[0].trace
            assert np.array_equal(trace.block_ids, reference_ids)
            assert np.shares_memory(trace.block_ids, parent_ids)
            assert worker.store.stats().lookups == 0
            # Re-sharing is idempotent: the bundles already exist.
            assert parent.share_trace_buffers() == 0
        finally:
            SHARED_BUNDLES.retire(group)

    def test_retired_group_falls_back_to_synthesis(self):
        from repro.engine.shm import SHARED_BUNDLES

        parent = self._memory_session()
        reference_ids = parent.benchmarks[0].trace.block_ids.copy()
        parent.share_trace_buffers()
        SHARED_BUNDLES.retire(parent.spec().digest())
        rebuilt = self._memory_session().benchmarks[0].trace
        assert np.array_equal(rebuilt.block_ids, reference_ids)

    def test_memory_mapped_sessions_skip_export(self, tmp_path, monkeypatch):
        # With the disk tier on, traces are memory-mapped bundles whose
        # pages are already shared between processes; exporting them to
        # shm would only duplicate the data.
        from repro.engine.shm import SHARED_BUNDLES

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = SuiteMeasurement(
            specs=[benchmark_by_name("small")],
            total_instructions=30_000,
            min_benchmark_instructions=30_000,
        )
        assert isinstance(session.benchmarks[0].trace.block_ids, np.memmap)
        group = session.spec().digest()
        try:
            assert session.share_trace_buffers() == 0
            assert group not in SHARED_BUNDLES
        finally:
            SHARED_BUNDLES.retire(group)


class TestPartitionedCubePath:
    """cube_jobs plumbing: bundle identity and bit-identical cubes."""

    def _session(self, cube_jobs=None):
        session = SuiteMeasurement(
            specs=[benchmark_by_name(n) for n in ("small", "yacc")],
            total_instructions=120_000,
            min_benchmark_instructions=30_000,
            use_disk_cache=False,
        )
        if cube_jobs is not None:
            session.attach_cube_jobs(cube_jobs)
        return session

    def test_attach_cube_jobs_validates(self):
        session = self._session()
        with pytest.raises(ConfigurationError):
            session.attach_cube_jobs(0)
        session.attach_cube_jobs(None)
        assert session.cube_jobs == 1
        session.attach_cube_jobs(3)
        assert session.cube_jobs == 3

    def test_address_bundle_matches_eager_stream(self):
        session = self._session()
        assert np.array_equal(
            session.dstream_address_bundle(), session.dstream_addresses()
        )

    def test_parallel_cubes_bit_identical_to_serial(self):
        serial = self._session()
        parallel = self._session(cube_jobs=2)
        builds = [
            lambda s: s.icache_miss_cube(1, (4, 8, 16), 4096, 4),
            lambda s: s.dcache_miss_cube((4, 8, 16), 4096, 4),
        ]
        for build in builds:
            a = build(serial)
            b = build(parallel)
            assert dict(a.references) == dict(b.references)
            for B in a.hits:
                for S in a.hits[B]:
                    assert np.array_equal(a.hits[B][S], b.hits[B][S]), (B, S)
