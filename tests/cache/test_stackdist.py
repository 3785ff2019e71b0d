"""Stack-distance tests: the cube over one block stream.

Every cube case runs :func:`miss_cube` over a single per-block stream
(``{B: stream}``, the form the instruction side feeds it).  The cube must
be *bit-identical* to the dict-LRU oracle and to the step-by-step
reference :class:`Cache` at every (set count, ways) point, and its
``A = 1`` column must match the direct-mapped single-pass sweep.  Long
windows with few distinct blocks drive the scan's blocked gather rounds,
which the short random streams rarely reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import MissPlane, direct_mapped_miss_sweep, miss_cube
from repro.cache import stackdist
from repro.errors import ConfigurationError

from tests.cache.oracles import Cache, set_associative_misses


def _small_alphabet(seed, length, alphabet, skew):
    """``length`` skewed draws from ``alphabet`` blocks: long windows over
    few distinct blocks, past the scan's shifted comparisons."""
    rng = np.random.default_rng(seed)
    return (rng.random(length) ** skew * alphabet).astype(np.int64).tolist()


streams = st.one_of(
    st.lists(st.integers(min_value=0, max_value=255), max_size=300),
    st.builds(
        _small_alphabet,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=1000, max_value=4000),
        alphabet=st.integers(min_value=2, max_value=40),
        skew=st.sampled_from([1.0, 2.0, 4.0]),
    ),
)

#: The one block size every single-stream cube here covers.
B = 4


def single_stream_cube(blocks, set_counts, max_ways):
    return miss_cube(
        {B: np.asarray(blocks, dtype=np.int64)}, list(set_counts), max_ways
    )


def hits(blocks, set_counts, max_ways):
    """``{num_sets: cumulative hits by ways}`` of one block stream."""
    return single_stream_cube(blocks, set_counts, max_ways).plane(B).hits


class TestStackDistanceHits:
    def test_empty_stream_is_all_zero(self):
        got = hits([], [1, 4, 16], 8)
        assert set(got) == {1, 4, 16}
        for level_hits in got.values():
            assert level_hits.tolist() == [0] * 9

    def test_no_set_counts(self):
        assert hits([0, 1, 2], [], 4) == {}

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            hits([0], [3], 2)
        with pytest.raises(ConfigurationError):
            hits([0], [4], 0)

    def test_single_set_repeats(self):
        # Five refs to one block in one set: 4 hits at every ways >= 1.
        got = hits([7, 7, 7, 7, 7], [1, 2], 2)
        assert got[1].tolist() == [0, 4, 4]
        assert got[2].tolist() == [0, 4, 4]

    def test_all_distinct_never_hits(self):
        got = hits(np.arange(64), [1, 8], 4)
        assert got[1].tolist() == [0] * 5
        assert got[8].tolist() == [0] * 5

    def test_hits_monotone_in_ways(self):
        rng = np.random.default_rng(11)
        blocks = (rng.random(5000) ** 2 * 512).astype(np.int64)
        for level_hits in hits(blocks, [1, 4, 32], 8).values():
            diffs = np.diff(level_hits)
            assert (diffs >= 0).all()

    @given(blocks=streams)
    @settings(max_examples=40, deadline=None)
    def test_ways_beyond_distinct_blocks_saturate(self, blocks):
        # Once ways >= distinct blocks no set can ever evict, so every
        # miss is cold and extra ways cannot add hits.
        distinct = len(set(blocks))
        got = hits(blocks, [4], distinct + 1)
        assert int(got[4][-1]) == len(blocks) - distinct
        saturated = got[4][distinct:]
        assert (saturated == saturated[-1]).all()


class TestPlaneEquivalence:
    @given(
        blocks=streams,
        levels=st.sets(st.integers(min_value=0, max_value=6), min_size=1),
        max_ways=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_lru_everywhere(self, blocks, levels, max_ways):
        stream = np.array(blocks, dtype=np.int64)
        set_counts = [1 << k for k in levels]
        cube = single_stream_cube(stream, set_counts, max_ways)
        for num_sets in set_counts:
            for way in range(1, max_ways + 1):
                assert cube.misses(B, num_sets, way) == set_associative_misses(
                    stream, num_sets, way
                ), (num_sets, way)

    @given(
        blocks=st.lists(st.integers(min_value=0, max_value=63), max_size=120),
        sets_log2=st.integers(min_value=0, max_value=4),
        assoc_log2=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_cache(self, blocks, sets_log2, assoc_log2):
        # The reference Cache wants power-of-two total sizes, so the
        # ways axis is sampled at powers of two here (the dict-LRU
        # equivalence test covers non-power-of-two ways).
        num_sets = 1 << sets_log2
        assoc = 1 << assoc_log2
        cube = single_stream_cube(blocks, [num_sets], assoc)
        oracle = Cache(
            size_words=num_sets * assoc * B, block_words=B, associativity=assoc
        )
        for block in blocks:
            oracle.access(block * B * 4)
        assert cube.misses(B, num_sets, assoc) == oracle.misses

    @given(blocks=streams)
    @settings(max_examples=40, deadline=None)
    def test_direct_mapped_column_matches_sweep(self, blocks):
        set_counts = [1, 2, 8, 64]
        cube = single_stream_cube(blocks, set_counts, 1)
        assert cube.axis(B) == direct_mapped_miss_sweep(
            np.array(blocks, dtype=np.int64), set_counts
        )

    @given(
        blocks=streams,
        cap_log2=st.integers(min_value=3, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_capacity_plane_matches_per_point_oracle(self, blocks, cap_log2):
        stream = np.array(blocks, dtype=np.int64)
        capacity = 1 << cap_log2
        ways = (1, 2, 4, 8)
        cube = single_stream_cube(stream, [capacity // w for w in ways], 8)
        for way in ways:
            assert cube.capacity_misses(B, capacity, way) == (
                set_associative_misses(stream, capacity // way, way)
            )

    def test_capacity_validation(self):
        cube = single_stream_cube([0], [16], 2)
        with pytest.raises(ConfigurationError):
            cube.capacity_misses(B, 12, 1)  # 12 sets: not a power of two
        with pytest.raises(ConfigurationError):
            cube.capacity_misses(B, 16, 3)  # 3 ways do not divide 16 blocks
        with pytest.raises(ConfigurationError):
            cube.capacity_misses(B, 16, 0)


class TestMissPlane:
    def plane(self):
        blocks = np.array([0, 8, 0, 16, 0, 8, 24, 0], dtype=np.int64)
        plane = single_stream_cube(blocks, [1, 2, 4, 8], 4).plane(B)
        assert isinstance(plane, MissPlane)
        return blocks, plane

    def test_misses_lookup(self):
        blocks, plane = self.plane()
        assert plane.set_counts == (1, 2, 4, 8)
        for num_sets in plane.set_counts:
            for way in (1, 2, 4):
                assert plane.misses(num_sets, way) == set_associative_misses(
                    blocks, num_sets, way
                )

    def test_capacity_misses(self):
        blocks, plane = self.plane()
        assert plane.capacity_misses(8, 2) == set_associative_misses(blocks, 4, 2)

    def test_uncovered_points_raise(self):
        _, plane = self.plane()
        with pytest.raises(ConfigurationError):
            plane.misses(16, 1)
        with pytest.raises(ConfigurationError):
            plane.misses(4, 5)
        with pytest.raises(ConfigurationError):
            plane.misses(4, 0)
        with pytest.raises(ConfigurationError):
            plane.capacity_misses(4, 3)  # 3 does not divide 4 blocks
        with pytest.raises(ConfigurationError):
            plane.capacity_misses(48, 3)  # 16 sets: not covered by the plane


def _loops_with_returns(seed=2):
    """300 loops of 2-7 hot blocks, each repeated 50-400 times, with a
    return to one of 40 older blocks after every loop."""
    rng = np.random.default_rng(seed)
    older = np.arange(1000, 1040, dtype=np.int64)
    parts = []
    for k in range(300):
        loop = rng.choice(12, size=int(rng.integers(2, 8)), replace=False)
        parts.append(np.tile(loop, int(rng.integers(50, 401))))
        parts.append(older[k % 40 : k % 40 + 1])
    return np.concatenate(parts)


class TestLongWindows:
    """Windows of thousands of positions over a handful of blocks: the
    cases the shifted comparisons cannot finish, which the blocked scan
    must carry for many doubling rounds."""

    STREAMS = {
        "alternation": lambda: np.array(
            [7] + [1, 2] * 50_000 + [7, 9, 7], dtype=np.int64
        ),
        "loops": _loops_with_returns,
    }

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_matches_dict_lru(self, name, monkeypatch):
        stream = self.STREAMS[name]()
        scanned = []
        real = stackdist._scan_tail

        def spy(gap, pos, window, count, max_ways):
            scanned.append(int(window.max()))
            return real(gap, pos, window, count, max_ways)

        monkeypatch.setattr(stackdist, "_scan_tail", spy)
        set_counts = [1, 4, 32]
        cube = single_stream_cube(stream, set_counts, 8)
        wide = single_stream_cube(stream, set_counts, 24)
        # Windows this long take ten or more doubling rounds.
        assert max(scanned) > stackdist._SCAN_WIDTH << 10
        for num_sets in set_counts:
            assert wide.plane(B).hits[num_sets][:9].tolist() == (
                cube.plane(B).hits[num_sets].tolist()
            )
            for way in range(1, 9):
                assert cube.misses(B, num_sets, way) == set_associative_misses(
                    stream, num_sets, way
                ), (num_sets, way)
            assert wide.misses(B, num_sets, 24) == set_associative_misses(
                stream, num_sets, 24
            ), num_sets


class TestSurvivorChain:
    """Each level carries only its survivors down the radix chain."""

    def test_link_redirected_past_a_dropped_repeat(self):
        # A = 0 shares set 0 with X = 1 only at one set, with Y = 2 up to
        # 2 sets, with Z = 4 up to 4 and with W = 8 up to 8.  At 2 sets
        # the second A becomes an adjacent repeat of the first and is
        # dropped; the third A linked to it and must now link to the
        # first.  At 8 sets the third A is dropped in turn, and the
        # fourth A, linked to it, must follow it to the first A as well.
        A, X, Y, Z, W = 0, 1, 2, 4, 8
        stream = np.array([A, X, A, Y, Z, A, W, A, X, Y, A], dtype=np.int64)
        set_counts = [1 << k for k in range(5)]
        cube = single_stream_cube(stream, set_counts, 8)
        for num_sets in set_counts:
            for way in range(1, 9):
                assert cube.misses(B, num_sets, way) == set_associative_misses(
                    stream, num_sets, way
                ), (num_sets, way)

    def test_chain_shrinks_level_by_level(self, monkeypatch):
        stream = _loops_with_returns()
        lengths = []
        real = stackdist._partition_bit

        def spy(cur, *args):
            lengths.append(len(cur))
            return real(cur, *args)

        monkeypatch.setattr(stackdist, "_partition_bit", spy)
        set_counts = [1 << k for k in range(7)]
        cube = single_stream_cube(stream, set_counts, 8)
        deduped = stream[np.r_[True, stream[1:] != stream[:-1]]]
        assert len(lengths) == len(set_counts) - 1
        assert all(a >= b for a, b in zip(lengths, lengths[1:])), lengths
        assert lengths[-1] < len(deduped), lengths
        for num_sets in (1, 64):
            assert cube.misses(B, num_sets, 4) == set_associative_misses(
                stream, num_sets, 4
            ), num_sets
