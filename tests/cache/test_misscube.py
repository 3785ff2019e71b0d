"""Miss-cube engine tests: oracle equivalence and degenerate cases.

The single-pass cube must be *bit-identical* to the per-config dict-LRU
oracle (:func:`set_associative_misses`) and to the step-by-step
reference :class:`Cache` at every (block size, set count, ways) point,
and each of its block-size planes must match a cube over that block
size's stream alone exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    MissCube,
    ShiftedStreams,
    addresses_to_blocks,
    capacity_set_counts,
    direct_mapped_miss_sweep,
    miss_cube,
    miss_cube_from_addresses,
)
from repro.errors import ConfigurationError
from repro.utils.units import WORD_BYTES

from tests.cache.oracles import Cache, set_associative_misses

addresses = st.lists(st.integers(min_value=0, max_value=1023), max_size=300)


def _cube(addrs, blocks=(4, 8, 16), set_counts=(1, 2, 4, 8, 16), max_ways=4):
    return miss_cube_from_addresses(
        np.array(addrs, dtype=np.int64), blocks, list(set_counts), max_ways
    )


class TestCubeEquivalence:
    @given(
        addrs=addresses,
        block_log2s=st.sets(st.integers(min_value=0, max_value=4), min_size=1),
        levels=st.sets(st.integers(min_value=0, max_value=5), min_size=1),
        max_ways=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_lru_everywhere(
        self, addrs, block_log2s, levels, max_ways
    ):
        stream = np.array(addrs, dtype=np.int64)
        blocks = [1 << b for b in block_log2s]
        set_counts = [1 << k for k in levels]
        cube = miss_cube_from_addresses(stream, blocks, set_counts, max_ways)
        for block in blocks:
            block_stream = addresses_to_blocks(stream, block)
            for num_sets in set_counts:
                for way in range(1, max_ways + 1):
                    assert cube.misses(block, num_sets, way) == (
                        set_associative_misses(block_stream, num_sets, way)
                    ), (block, num_sets, way)

    @given(
        addrs=st.lists(st.integers(min_value=0, max_value=255), max_size=120),
        block_log2=st.integers(min_value=0, max_value=3),
        sets_log2=st.integers(min_value=0, max_value=3),
        assoc_log2=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_cache(
        self, addrs, block_log2, sets_log2, assoc_log2
    ):
        # The reference Cache wants power-of-two total sizes, so the
        # ways axis is sampled at powers of two here (the dict-LRU
        # equivalence test covers non-power-of-two ways).
        block_words = 1 << block_log2
        num_sets = 1 << sets_log2
        assoc = 1 << assoc_log2
        cube = _cube(addrs, (block_words,), (num_sets,), assoc)
        oracle = Cache(
            size_words=num_sets * assoc * block_words,
            block_words=block_words,
            associativity=assoc,
        )
        for addr in addrs:
            oracle.access(addr)  # both consume byte addresses
        assert cube.misses(block_words, num_sets, assoc) == oracle.misses

    @given(addrs=addresses)
    @settings(max_examples=40, deadline=None)
    def test_planes_match_single_block_cubes(self, addrs):
        # Building several block sizes in one pass must not change any
        # block size's plane: each is bit-identical to a cube over that
        # block size's stream alone.
        stream = np.array(addrs, dtype=np.int64)
        set_counts = [1, 4, 16]
        cube = miss_cube_from_addresses(stream, (4, 16), set_counts, 4)
        for block in (4, 16):
            alone = miss_cube(
                {block: addresses_to_blocks(stream, block)}, set_counts, 4
            ).plane(block)
            plane = cube.plane(block)
            assert plane.references == len(stream)
            for num_sets in set_counts:
                assert plane.hits[num_sets].tolist() == (
                    alone.hits[num_sets].tolist()
                ), (block, num_sets)

    @given(addrs=addresses)
    @settings(max_examples=40, deadline=None)
    def test_axis_matches_direct_mapped_sweep(self, addrs):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = [1, 2, 8, 64]
        cube = miss_cube_from_addresses(stream, (8,), set_counts, 2)
        sweep = direct_mapped_miss_sweep(
            addresses_to_blocks(stream, 8), set_counts
        )
        assert cube.axis(8) == sweep


class TestDegenerateCases:
    def test_empty_stream_is_all_zero_misses(self):
        cube = _cube([])
        assert cube.references == {4: 0, 8: 0, 16: 0}
        for block in (4, 8, 16):
            for num_sets in (1, 16):
                for way in (1, 4):
                    assert cube.misses(block, num_sets, way) == 0

    def test_single_block_stream(self):
        # Every byte address inside one 16-word (64-byte) block: one
        # cold miss at every geometry of the largest block size.
        addrs = [3, 0, 63, 17, 3, 0]
        cube = _cube(addrs)
        for block in (4, 8, 16):
            distinct = len({a // (block * WORD_BYTES) for a in addrs})
            for num_sets in (1, 2, 16):
                assert cube.misses(block, num_sets, 1) >= distinct
            assert cube.misses(block, 1, 4) >= distinct
        assert cube.misses(16, 1, 1) == 1
        assert cube.misses(16, 16, 4) == 1

    def test_fully_associative_column(self):
        # S = 1 at large ways is plain LRU over the whole cache.
        addrs = [0, 64, 128, 0, 64, 128, 192, 0]
        cube = _cube(addrs, blocks=(4,), set_counts=(1,), max_ways=8)
        assert cube.misses(4, 1, 8) == len(
            {a // (4 * WORD_BYTES) for a in addrs}
        )

    def test_block_larger_than_stream_span(self):
        # A block size larger than the whole touched address range:
        # every reference lands in block 0, one miss total.
        addrs = [0, 1, 2, 3, 2, 1]
        cube = _cube(addrs, blocks=(256,), set_counts=(1, 2, 4), max_ways=2)
        for num_sets in (1, 2, 4):
            for way in (1, 2):
                assert cube.misses(256, num_sets, way) == 1

    def test_streams_of_unequal_lengths(self):
        # miss_cube accepts per-block streams that are not shift views
        # of one another (e.g. run-collapsed instruction streams).
        streams = {
            4: np.array([0, 1, 0, 2, 0], dtype=np.int64),
            8: np.array([0, 1, 0], dtype=np.int64),
        }
        cube = miss_cube(streams, {4: [1, 2], 8: [1]}, 2)
        assert cube.references == {4: 5, 8: 3}
        for block, stream in streams.items():
            for num_sets in cube.set_counts(block):
                for way in (1, 2):
                    assert cube.misses(block, num_sets, way) == (
                        set_associative_misses(stream, num_sets, way)
                    )


class TestCubeValidation:
    def test_rejects_bad_block_sizes(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            _cube([0, 1], blocks=(3,))
        with pytest.raises(ConfigurationError, match="at least one block"):
            _cube([0, 1], blocks=())

    def test_rejects_bad_ways_and_sets(self):
        with pytest.raises(ConfigurationError, match="max_ways"):
            _cube([0, 1], max_ways=0)
        with pytest.raises(ConfigurationError, match="power of two"):
            _cube([0, 1], set_counts=(3,))

    def test_rejects_set_counts_for_uncovered_blocks(self):
        with pytest.raises(ConfigurationError, match="uncovered block sizes"):
            miss_cube(
                {4: np.array([0, 1], dtype=np.int64)}, {4: [1], 8: [1]}, 2
            )

    def test_uncovered_lookups_raise(self):
        cube = _cube([0, 5, 9], blocks=(4, 8), set_counts=(1, 2, 4), max_ways=2)
        with pytest.raises(ConfigurationError, match="does not cover 16-word"):
            cube.misses(16, 1, 1)
        with pytest.raises(ConfigurationError, match="does not cover 8 sets"):
            cube.plane(4, max_sets=8)
        with pytest.raises(ConfigurationError, match="1..2 ways"):
            cube.plane(4, max_ways=3)
        with pytest.raises(ConfigurationError):
            cube.misses(4, 1, 0)

    def test_plane_trimming_shapes(self):
        cube = _cube([0, 5, 9, 0, 5], blocks=(4,), set_counts=(1, 2, 4))
        plane = cube.plane(4, max_sets=2, max_ways=2)
        assert plane.set_counts == (1, 2)
        assert plane.max_ways == 2
        assert all(len(h) == 3 for h in plane.hits.values())
        full = cube.plane(4)
        assert full.set_counts == (1, 2, 4)
        assert full.max_ways == 4

    def test_block_words_property(self):
        assert _cube([0, 1]).block_words == (4, 8, 16)


class TestCapacitySetCounts:
    def test_covers_every_geometry(self):
        grid = capacity_set_counts((4, 16), 1024)
        assert grid[4] == [1 << k for k in range(9)]
        assert grid[16] == [1 << k for k in range(7)]

    def test_rejects_non_power_capacity(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            capacity_set_counts((4,), 768)

    def test_rejects_capacity_below_block(self):
        with pytest.raises(ConfigurationError, match="cannot hold"):
            capacity_set_counts((4, 64), 32)

    def test_context_in_message(self):
        with pytest.raises(ConfigurationError, match="invalid L1-D geometry"):
            capacity_set_counts((4,), 768, context="L1-D")


class TestShiftedStreams:
    def test_lazy_views_match_eager_shifts(self):
        addrs = np.array([0, 64, 128, 64, 4, 8], dtype=np.int64)
        streams = ShiftedStreams(addrs, (4, 8, 16))
        for B in (4, 8, 16):
            assert np.array_equal(streams[B], addresses_to_blocks(addrs, B))

    def test_mapping_protocol(self):
        streams = ShiftedStreams(np.arange(8, dtype=np.int64), (4, 16))
        assert set(streams) == {4, 16}
        assert len(streams) == 2
        assert 4 in streams and 8 not in streams
        with pytest.raises(KeyError):
            streams[8]

    def test_cube_accepts_lazy_streams(self):
        addrs = np.array([0, 32, 0, 96, 32, 0], dtype=np.int64)
        eager = miss_cube_from_addresses(addrs, (4, 8), (1, 2, 4), 2)
        lazy = miss_cube(ShiftedStreams(addrs, (4, 8)), (1, 2, 4), 2)
        assert eager.references == lazy.references
        for B in eager.hits:
            for S in eager.hits[B]:
                assert np.array_equal(eager.hits[B][S], lazy.hits[B][S])


class TestMemmapNoCopy:
    def test_memmap_addresses_end_to_end_without_eager_blowup(self, tmp_path):
        # The eager path used to materialize every per-block-size shift
        # of the address stream up front (3 full copies for 3 block
        # sizes, on top of the engine's own transient).  With a memmap
        # source and ShiftedStreams the cube must stay within roughly
        # one shifted stream plus engine transients at a time.
        import tracemalloc

        rng = np.random.default_rng(7)
        addrs = np.repeat(rng.integers(0, 1 << 14, size=20_000), 64).astype(
            np.int64
        )
        path = tmp_path / "addrs.npy"
        np.save(path, addrs)
        mapped = np.load(path, mmap_mode="r")
        assert isinstance(mapped, np.memmap)

        eager = miss_cube_from_addresses(addrs, (4, 8, 16), (16, 32), 2)

        tracemalloc.start()
        lazy = miss_cube_from_addresses(mapped, (4, 8, 16), (16, 32), 2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert eager.references == lazy.references
        for B in eager.hits:
            for S in eager.hits[B]:
                assert np.array_equal(eager.hits[B][S], lazy.hits[B][S])
        # Three eagerly shifted copies alone are 3x the stream before
        # the engine even starts (measured ~4.2x peak); the lazy path
        # peaks at ~1.2x, so a 2x bound fails if the implicit per-block
        # copies ever come back.
        assert peak < 2 * addrs.nbytes
