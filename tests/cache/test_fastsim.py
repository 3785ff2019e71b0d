"""Vectorized direct-mapped simulator tests, including oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    Cache,
    addresses_to_blocks,
    direct_mapped_miss_sweep,
    direct_mapped_misses,
)
from repro.errors import ConfigurationError


class TestAddressesToBlocks:
    def test_basic(self):
        addresses = np.array([0, 4, 16, 20, 32])
        assert addresses_to_blocks(addresses, block_words=4).tolist() == [0, 0, 1, 1, 2]

    def test_rejects_bad_block(self):
        with pytest.raises(ConfigurationError):
            addresses_to_blocks(np.array([0]), block_words=3)


class TestDirectMappedMisses:
    def test_empty(self):
        assert direct_mapped_misses(np.array([], dtype=np.int64), 16) == 0

    def test_cold_misses_only(self):
        blocks = np.array([0, 1, 2, 3])
        assert direct_mapped_misses(blocks, 16) == 4

    def test_rereference_hits(self):
        blocks = np.array([0, 1, 0, 1])
        assert direct_mapped_misses(blocks, 16) == 2

    def test_conflict_thrashing(self):
        # Blocks 0 and 16 share set 0 in a 16-set cache: every access misses.
        blocks = np.array([0, 16, 0, 16, 0])
        assert direct_mapped_misses(blocks, 16) == 5

    def test_bigger_cache_separates_conflicts(self):
        blocks = np.array([0, 16, 0, 16, 0])
        assert direct_mapped_misses(blocks, 32) == 2

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            direct_mapped_misses(np.array([0]), 12)

    def test_sweep_matches_individual(self):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 500, size=2000)
        sweep = direct_mapped_miss_sweep(blocks, [16, 64, 256])
        for sets, misses in sweep.items():
            assert misses == direct_mapped_misses(blocks, sets)

    @given(
        blocks=st.lists(st.integers(min_value=0, max_value=255), max_size=300),
        sets_log2=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalent_to_reference_cache(self, blocks, sets_log2):
        """The vectorized fast path must agree exactly with the oracle."""
        num_sets = 1 << sets_log2
        block_words = 4
        fast = direct_mapped_misses(np.array(blocks, dtype=np.int64), num_sets)
        oracle = Cache(size_words=num_sets * block_words, block_words=block_words)
        for block in blocks:
            oracle.access(block * block_words * 4)
        assert fast == oracle.stats.misses

    def test_miss_rate_decreases_with_size(self):
        rng = np.random.default_rng(11)
        # Skewed reuse over 4096 blocks.
        blocks = (rng.random(50_000) ** 3 * 4096).astype(np.int64)
        misses = [direct_mapped_misses(blocks, 1 << k) for k in range(4, 13)]
        assert all(a >= b for a, b in zip(misses, misses[1:]))


def _loop_stream(seed, alphabet, loops):
    """``loops`` loops over a few of ``alphabet`` blocks, each block
    touched 1-8 times in a row per iteration: long repeat runs, and
    repeats that only become adjacent once a finer set count separates
    the loop's blocks."""
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(loops):
        body = rng.integers(0, alphabet, size=int(rng.integers(1, 6)))
        runs = np.repeat(body, rng.integers(1, 9, size=len(body)))
        parts.append(np.tile(runs, int(rng.integers(1, 12))))
    return np.concatenate(parts).tolist()


loop_streams = st.builds(
    _loop_stream,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alphabet=st.integers(min_value=2, max_value=64),
    loops=st.integers(min_value=1, max_value=20),
)


def _reference_cache_misses(blocks, num_sets, block_words=4):
    oracle = Cache(size_words=num_sets * block_words, block_words=block_words)
    for block in blocks:
        oracle.access(block * block_words * 4)
    return oracle.stats.misses


class TestSinglePassSweep:
    """The single-pass multi-geometry sweep vs. the per-size oracles."""

    def test_empty_stream(self):
        empty = np.array([], dtype=np.int64)
        assert direct_mapped_miss_sweep(empty, [1, 8, 64]) == {1: 0, 8: 0, 64: 0}

    def test_empty_sweep(self):
        assert direct_mapped_miss_sweep(np.array([1, 2, 3]), []) == {}

    def test_single_set_cache(self):
        # One set: a reference hits iff it repeats the immediately
        # preceding block.
        blocks = np.array([5, 5, 7, 5, 5, 7, 7])
        assert direct_mapped_miss_sweep(blocks, [1]) == {1: 4}
        assert direct_mapped_misses(blocks, 1) == 4

    def test_stream_touching_only_one_set(self):
        # Blocks 0, 64, 128 all map to set 0 of a 64-set cache; the other
        # 63 sets stay cold, and every size still counts exactly.
        blocks = np.array([0, 64, 128, 0, 64, 128, 0])
        sweep = direct_mapped_miss_sweep(blocks, [1, 64, 128, 256])
        for sets, misses in sweep.items():
            assert misses == direct_mapped_misses(blocks, sets)
        assert sweep[256] == 3  # fully separated: cold misses only

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            direct_mapped_miss_sweep(np.array([0]), [16, 12])
        with pytest.raises(ConfigurationError):
            direct_mapped_miss_sweep(np.array([0]), [0])

    def test_duplicate_and_unsorted_sizes(self):
        blocks = np.array([0, 9, 0, 17, 9, 0])
        sweep = direct_mapped_miss_sweep(blocks, [64, 2, 64, 8])
        assert set(sweep) == {2, 8, 64}
        for sets, misses in sweep.items():
            assert misses == direct_mapped_misses(blocks, sets)

    @given(
        blocks=st.one_of(
            st.lists(st.integers(min_value=0, max_value=600), max_size=300),
            loop_streams,
        ),
        levels=st.sets(st.integers(min_value=0, max_value=10), min_size=1, max_size=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_counts_match_per_size_oracle(self, blocks, levels):
        """Random and loop-like streams x random sweeps (many of them
        without the one-set level) == the per-size exact path."""
        stream = np.array(blocks, dtype=np.int64)
        set_counts = [1 << level for level in levels]
        sweep = direct_mapped_miss_sweep(stream, set_counts)
        assert sweep == {
            sets: direct_mapped_misses(stream, sets) for sets in set_counts
        }

    @given(
        blocks=st.one_of(
            st.lists(st.integers(min_value=0, max_value=255), max_size=200),
            loop_streams,
        ),
        levels=st.sets(st.integers(min_value=0, max_value=8), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_match_reference_cache(self, blocks, levels):
        """Random and loop-like streams x random sweeps == the
        step-by-step Cache."""
        stream = np.array(blocks, dtype=np.int64)
        sweep = direct_mapped_miss_sweep(stream, [1 << level for level in levels])
        for sets, misses in sweep.items():
            assert misses == _reference_cache_misses(blocks, sets), sets

    def test_repeat_adjacent_only_at_a_finer_size(self):
        # Blocks 0 and 8 share set 0 up to 8 sets and alternate there;
        # at 16 sets each has a set of its own, so every later reference
        # repeats its in-set predecessor.  Block 3 splits off at 2 sets.
        blocks = [0, 0, 8, 3, 0, 8, 8, 3, 0, 8]
        set_counts = [2, 8, 16, 64]
        sweep = direct_mapped_miss_sweep(np.array(blocks), set_counts)
        assert sweep == {2: 7, 8: 7, 16: 3, 64: 3}
        for sets in set_counts:
            assert sweep[sets] == direct_mapped_misses(np.array(blocks), sets)
            assert sweep[sets] == _reference_cache_misses(blocks, sets)

    def test_skewed_reuse_large_stream(self):
        rng = np.random.default_rng(23)
        blocks = (rng.random(60_000) ** 3 * 16384).astype(np.int64)
        set_counts = [1 << k for k in range(0, 15, 2)]
        sweep = direct_mapped_miss_sweep(blocks, set_counts)
        for sets in set_counts:
            assert sweep[sets] == direct_mapped_misses(blocks, sets)
        # Nesting property: a hit in a smaller cache is a hit in a larger.
        ordered = [sweep[sets] for sets in sorted(set_counts)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        assert ordered[0] > ordered[-1] > 0


class TestMissMask:
    def test_mask_matches_count(self):
        import numpy as np
        from repro.cache.fastsim import direct_mapped_miss_mask

        rng = np.random.default_rng(13)
        blocks = (rng.random(5000) ** 2 * 2000).astype(np.int64)
        mask = direct_mapped_miss_mask(blocks, 64)
        assert int(mask.sum()) == direct_mapped_misses(blocks, 64)

    def test_mask_in_reference_order(self):
        import numpy as np
        from repro.cache.fastsim import direct_mapped_miss_mask

        blocks = np.array([0, 1, 0, 64, 0])  # 64 aliases 0 in a 64-set cache
        mask = direct_mapped_miss_mask(blocks, 64)
        assert mask.tolist() == [True, True, False, True, True]

    def test_empty(self):
        import numpy as np
        from repro.cache.fastsim import direct_mapped_miss_mask

        assert direct_mapped_miss_mask(np.array([], dtype=np.int64), 16).tolist() == []

    def test_mask_agrees_with_reference_cache(self):
        import numpy as np
        from repro.cache.fastsim import direct_mapped_miss_mask

        rng = np.random.default_rng(17)
        blocks = (rng.random(2000) ** 2 * 300).astype(np.int64)
        mask = direct_mapped_miss_mask(blocks, 32)
        oracle = Cache(size_words=32 * 4, block_words=4)
        expected = [not oracle.access(int(b) * 16) for b in blocks]
        assert mask.tolist() == expected
