"""Dict-LRU oracle tests: the oracle itself against the reference Cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError

from tests.cache import oracles
from tests.cache.oracles import Cache, set_associative_misses


class TestSetAssociativeMisses:
    def test_empty(self):
        assert set_associative_misses(np.array([], dtype=np.int64), 16, 2) == 0

    def test_direct_mapped_delegates(self):
        blocks = np.array([0, 16, 0, 16, 0])
        assert set_associative_misses(blocks, 16, 1) == 5

    def test_two_way_absorbs_pairwise_conflict(self):
        blocks = np.array([0, 16, 0, 16, 0])
        # With 8 sets x 2 ways both blocks stay resident.
        assert set_associative_misses(blocks, 8, 2) == 2

    def test_lru_order(self):
        # Three blocks rotating through a 2-way set always miss.
        blocks = np.array([0, 8, 16, 0, 8, 16])
        assert set_associative_misses(blocks, 8, 2) == 6

    def test_lru_keeps_recently_used(self):
        # a, b, a, c: c evicts b (LRU), so the next a still hits.
        blocks = np.array([0, 8, 0, 16, 0])
        assert set_associative_misses(blocks, 8, 2) == 3

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            set_associative_misses(np.array([0]), 12, 2)
        with pytest.raises(ConfigurationError):
            set_associative_misses(np.array([0]), 16, 0)

    @given(
        blocks=st.lists(st.integers(min_value=0, max_value=127), max_size=200),
        sets_log2=st.integers(min_value=0, max_value=4),
        assoc_log2=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_equivalent_to_reference_cache(self, blocks, sets_log2, assoc_log2):
        num_sets = 1 << sets_log2
        associativity = 1 << assoc_log2
        block_words = 4
        fast = set_associative_misses(
            np.array(blocks, dtype=np.int64), num_sets, associativity
        )
        oracle = Cache(
            size_words=num_sets * associativity * block_words,
            block_words=block_words,
            associativity=associativity,
        )
        for block in blocks:
            oracle.access(block * block_words * 4)
        assert fast == oracle.misses

    @given(
        blocks=st.lists(st.integers(min_value=0, max_value=63), max_size=150),
        assoc_log2=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_fully_associative_short_circuit(self, blocks, assoc_log2):
        # num_sets == 1 takes the dedicated single-dict path; it must be
        # bit-identical to the reference Cache.
        assoc = 1 << assoc_log2
        block_words = 4
        fast = set_associative_misses(np.array(blocks, dtype=np.int64), 1, assoc)
        oracle = Cache(
            size_words=assoc * block_words,
            block_words=block_words,
            associativity=assoc,
        )
        for block in blocks:
            oracle.access(block * block_words * 4)
        assert fast == oracle.misses

    def test_ways_at_least_stream_length_is_cold_misses_only(self):
        blocks = np.array([3, 5, 3, 7, 5], dtype=np.int64)
        # associativity >= len(stream): no set can ever evict.
        assert set_associative_misses(blocks, 4, 8) == 3
        assert set_associative_misses(blocks, 1, 5) == 3

    def test_chunked_iteration_is_identical(self, monkeypatch):
        rng = np.random.default_rng(9)
        blocks = (rng.random(1000) ** 2 * 256).astype(np.int64)
        expected_sa = set_associative_misses(blocks, 16, 4)
        expected_fa = set_associative_misses(blocks, 1, 64)
        # Force many tiny chunks; the counts must not change.
        monkeypatch.setattr(oracles, "_CHUNK_REFERENCES", 7)
        assert set_associative_misses(blocks, 16, 4) == expected_sa
        assert set_associative_misses(blocks, 1, 64) == expected_fa

    def test_more_ways_never_more_misses_on_skewed_stream(self):
        rng = np.random.default_rng(5)
        blocks = (rng.random(20_000) ** 3 * 2048).astype(np.int64)
        misses = [set_associative_misses(blocks, 256 // a, a) for a in (1, 2, 4)]
        # Not a theorem for arbitrary streams (Belady anomalies exist for
        # other policies), but holds for this skewed reuse stream.
        assert misses[0] >= misses[1] >= misses[2]

