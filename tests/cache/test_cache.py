"""The step-by-step oracle cache on hand-worked references."""

import pytest

from repro.errors import ConfigurationError

from tests.cache.oracles import Cache


class TestGeometry:
    def test_sets(self):
        cache = Cache(size_words=1024, block_words=4, associativity=2)
        assert cache.num_sets == 128

    def test_direct_mapped(self):
        cache = Cache(size_words=1024, block_words=4)
        assert cache.associativity == 1
        assert cache.num_sets == 256

    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(ConfigurationError):
            Cache(size_words=1000, block_words=4)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigurationError):
            Cache(size_words=1024, block_words=3)

    def test_rejects_block_bigger_than_cache(self):
        with pytest.raises(ConfigurationError):
            Cache(size_words=4, block_words=8)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ConfigurationError):
            Cache(size_words=1024, block_words=4, associativity=3)


class TestAccessBehaviour:
    def test_cold_miss_then_hit(self):
        cache = Cache(size_words=64, block_words=4)
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert (cache.accesses, cache.misses) == (2, 1)

    def test_spatial_locality_within_block(self):
        cache = Cache(size_words=64, block_words=4)
        cache.access(0x1000)
        assert cache.access(0x1004)  # same 16-byte block
        assert not cache.access(0x1010)  # next block

    def test_direct_mapped_conflict(self):
        cache = Cache(size_words=16, block_words=4)  # 4 sets
        conflicting = 16 * 4  # same index, different tag
        cache.access(0)
        assert not cache.access(conflicting)
        assert not cache.access(0)  # evicted

    def test_two_way_avoids_direct_conflict(self):
        cache = Cache(size_words=32, block_words=4, associativity=2)  # 4 sets
        conflicting = 16 * 4
        cache.access(0)
        cache.access(conflicting)
        assert cache.access(0)
        assert cache.access(conflicting)

    def test_lru_eviction_order(self):
        cache = Cache(size_words=32, block_words=4, associativity=2)
        a, b, c = 0, 16 * 4, 32 * 4  # all map to set 0
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a most recent
        cache.access(c)  # evicts b
        assert cache.access(a)
        assert not cache.access(b)
