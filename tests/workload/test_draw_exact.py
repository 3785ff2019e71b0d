"""The synthesizer's plain-Python draws against ``numpy.random.Generator``.

Program synthesis replaces its two ``Generator.choice`` call sites with
exact equivalents (:func:`~repro.workload.synthesis.choice_cdf`,
:func:`~repro.workload.synthesis.choice_without_replacement`).  Exact
means the same indices *and* the same generator state afterwards, so
every later draw of the synthesizer is unchanged too; the golden digests
in ``test_synthesis_golden.py`` pin the programs end to end.
"""

from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import benchmark_by_name
from repro.workload.synthesis import (
    _CONSTRUCT_CDF,
    _CONSTRUCT_KINDS,
    _CONSTRUCT_WEIGHTS,
    _LOAD_EARLY_WEIGHT,
    _STORE_LATE_WEIGHT,
    _Synthesizer,
    choice_cdf,
    choice_without_replacement,
    pairwise_sum,
)

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
#: The weight floor of ``_Synthesizer._positions``.
FLOOR = 0.05


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def numpy_sample(seed: int, weights, count: int):
    """The call the sampler replaces, and the generator it leaves."""
    rng = np.random.default_rng(seed)
    w = np.array(weights, dtype=np.float64)
    p = w / w.sum()
    chosen = rng.choice(len(w), size=min(count, len(w)), replace=False, p=p)
    return chosen.tolist(), rng


def assert_sample_matches(seed: int, weights, count: int) -> None:
    expected, numpy_rng = numpy_sample(seed, weights, count)
    rng = np.random.default_rng(seed)
    assert choice_without_replacement(rng, weights, count) == expected
    assert same_state(rng, numpy_rng)


@st.composite
def weight_lists(draw):
    """Positive weights: floored, tied, or a ``_positions`` ramp."""
    n = draw(st.integers(min_value=1, max_value=300))
    shape = draw(st.sampled_from(["floored", "tied", "ramp"]))
    if shape == "tied":
        pool = draw(st.lists(st.sampled_from([FLOOR, 0.5, 1.0, 1.5]), min_size=1, max_size=3))
        return [pool[i % len(pool)] for i in range(n)]
    if shape == "ramp":
        span = max(1, n - 1 + draw(st.integers(min_value=0, max_value=3)))
        if draw(st.booleans()):
            return [max(_LOAD_EARLY_WEIGHT - i / span, FLOOR) for i in range(n)]
        return [max(_STORE_LATE_WEIGHT + i / span, FLOOR) for i in range(n)]
    raw = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return [max(w, FLOOR) for w in raw]


class TestPairwiseSum:
    def test_every_length_up_to_300(self):
        # Covers the n < 8 loop, the 8-lane block (<= 128) and the split.
        rng = np.random.default_rng(2024)
        for n in range(1, 301):
            for scale in (1.0, 1e-3, 1e6):
                values = rng.random(n) * scale + FLOOR
                assert pairwise_sum(values.tolist()) == float(np.sum(values)), n

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_matches_np_sum(self, values):
        assert pairwise_sum(values) == float(np.sum(np.array(values, dtype=np.float64)))


class TestWithoutReplacement:
    @settings(max_examples=300, deadline=None)
    @given(weights=weight_lists(), seed=SEEDS, data=st.data())
    def test_matches_generator_choice(self, weights, seed, data):
        count = data.draw(st.integers(min_value=0, max_value=len(weights) + 2))
        assert_sample_matches(seed, weights, count)

    def test_every_population_up_to_300(self):
        rng = np.random.default_rng(7)
        for n in range(1, 301):
            weights = [max(w, FLOOR) for w in (rng.random(n) * 2.0 - 0.5).tolist()]
            for count in (1, int(rng.integers(0, n + 3)), n + 2):
                assert_sample_matches(int(rng.integers(0, 2**32)), weights, count)

    def test_all_tied_takes_several_rounds(self):
        # Equal weights make repeated indices (and so extra rounds) likely.
        for seed in range(50):
            assert_sample_matches(seed, [FLOOR] * 40, 40)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=SEEDS,
        length=st.integers(min_value=1, max_value=40),
        early=st.booleans(),
        data=st.data(),
    )
    def test_positions_match_the_numpy_call_site(self, seed, length, early, data):
        free = sorted(
            data.draw(st.sets(st.integers(0, length - 1), min_size=1, max_size=length))
        )
        count = data.draw(st.integers(min_value=1, max_value=len(free) + 2))
        synthesizer = _Synthesizer(benchmark_by_name("small"), 0)
        synthesizer.rng = np.random.default_rng(seed)
        got = synthesizer._positions(free, count, length, early)

        rng = np.random.default_rng(seed)
        span = max(1, length - 1)
        if early:
            weights = np.array([_LOAD_EARLY_WEIGHT - i / span for i in free])
        else:
            weights = np.array([_STORE_LATE_WEIGHT + i / span for i in free])
        weights = np.maximum(weights, FLOOR)
        weights /= weights.sum()
        chosen = rng.choice(len(free), size=min(count, len(free)), replace=False, p=weights)
        assert got == sorted(free[int(c)] for c in chosen)
        assert same_state(synthesizer.rng, rng)


class TestConstructDraw:
    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
        seed=SEEDS,
    )
    def test_matches_generator_choice(self, raw, seed):
        weights = np.array(raw) + FLOOR
        p = weights / weights.sum()
        numpy_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        expected = int(numpy_rng.choice(len(p), p=p))
        assert bisect_right(choice_cdf(p.tolist()), rng.random()) == expected
        assert same_state(rng, numpy_rng)

    def test_module_table_is_numpy_normalized(self):
        names = list(_CONSTRUCT_WEIGHTS)
        weights = np.array([_CONSTRUCT_WEIGHTS[n] for n in names])
        weights /= weights.sum()
        assert _CONSTRUCT_KINDS == names
        numpy_rng = np.random.default_rng(19920519)
        rng = np.random.default_rng(19920519)
        for _ in range(2_000):
            expected = names[int(numpy_rng.choice(len(names), p=weights))]
            assert _CONSTRUCT_KINDS[bisect_right(_CONSTRUCT_CDF, rng.random())] == expected
        assert same_state(rng, numpy_rng)
