"""The synthesizer's plain-Python draws against ``numpy.random.Generator``.

After its one ``lognormal`` call, program synthesis draws everything from
a :class:`~repro.workload.synthesis.DrawStream`, which reads the
generator's raw PCG64 words and derives ``random``, ``integers``,
``poisson`` and ``geometric`` values itself; its two ``Generator.choice``
call sites are emulated on top of that
(:func:`~repro.workload.synthesis.choice_cdf`,
:func:`~repro.workload.synthesis.choice_table`,
:func:`~repro.workload.synthesis.choice_without_replacement`).  Exact
means the same values *and* the same position in the generator's stream
afterwards, so every later draw of the synthesizer is unchanged too; the
golden digests in ``test_synthesis_golden.py`` pin the programs end to
end.

The position check: a stream that has consumed ``n`` raw words since the
hand-off, with pending half ``h``, stands where a fresh ``PCG64`` set to
the hand-off state and advanced by ``n`` words stands, with ``h`` as its
buffered 32-bit half.  That must equal the ``bit_generator.state`` of a
``Generator`` that made the same calls.
"""

from bisect import bisect_right
from contextlib import contextmanager
from math import inf, lgamma, nan

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload import benchmark_by_name, synthesis
from repro.workload.synthesis import (
    _CONSTRUCT_CDF,
    _CONSTRUCT_KINDS,
    _CONSTRUCT_WEIGHTS,
    _LOAD_EARLY_WEIGHT,
    _STORE_LATE_WEIGHT,
    DrawStream,
    _Synthesizer,
    choice_cdf,
    choice_table,
    choice_without_replacement,
    loggam,
    pairwise_sum,
)

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
#: The weight floor of ``_Synthesizer._positions``.
FLOOR = 0.05
#: matrix500's loop-body Poisson mean, the only Table 1 mean in PTRS range.
MATRIX500_LAM = 13.714285714285717
#: The smallest ``p`` above the double nearest 1/3.
JUST_ABOVE_THIRD = float(np.nextafter(1 / 3, 1.0))


def position(state: dict) -> tuple:
    """Where a bit generator stands: its LCG state and its pending half.

    numpy leaves a used half in ``uinteger`` after clearing
    ``has_uint32``; only a pending half is part of the position.
    """
    pending = state["uinteger"] if state["has_uint32"] else None
    return state["state"], pending


def consumed(stream: DrawStream) -> int:
    """Raw words the stream has drawn since the hand-off: the words its
    batch reader has read, less those still buffered in the batch."""
    batch, read = stream._tally
    return read - batch.__length_hint__()


def stream_position(stream: DrawStream, handoff: dict) -> tuple:
    """The position check: the hand-off state advanced by the stream's
    consumed words, plus its pending half."""
    bit_generator = np.random.PCG64()
    bit_generator.state = handoff
    bit_generator.advance(consumed(stream))
    return bit_generator.state["state"], stream.pending


def handed_off(seed: int):
    """A stream over a fresh generator, and the state it took over."""
    rng = np.random.default_rng(seed)
    return DrawStream(rng), rng.bit_generator.state


def assert_same_position(stream: DrawStream, handoff: dict, rng: np.random.Generator):
    assert stream_position(stream, handoff) == position(rng.bit_generator.state)


@contextmanager
def raw_batch(words: int):
    """Streams created inside read ``words`` raw words per batch."""
    saved = synthesis.RAW_BATCH
    synthesis.RAW_BATCH = words
    try:
        yield
    finally:
        synthesis.RAW_BATCH = saved


def numpy_sample(seed: int, weights, count: int):
    """The call the sampler replaces, and the generator it leaves."""
    rng = np.random.default_rng(seed)
    w = np.array(weights, dtype=np.float64)
    p = w / w.sum()
    chosen = rng.choice(len(w), size=min(count, len(w)), replace=False, p=p)
    return chosen.tolist(), rng


def assert_sample_matches(seed: int, weights, count: int) -> None:
    expected, numpy_rng = numpy_sample(seed, weights, count)
    stream, handoff = handed_off(seed)
    assert choice_without_replacement(stream, choice_table(weights), count) == expected
    assert_same_position(stream, handoff, numpy_rng)


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


# -- the raw stream ------------------------------------------------------------

#: ``integers`` spans: one (no draw), the synthesizer's 2-7 and 2048, and
#: anything else below 2**32 (rejections are likely only near the top).
SPANS = st.one_of(
    st.just(1),
    st.integers(min_value=2, max_value=7),
    st.just(2048),
    st.integers(min_value=1, max_value=2**32 - 1),
)
#: Poisson means: 0 (no draw), the multiplication method below 10, and
#: PTRS at exactly 10, at matrix500's mean and up to 200.
LAMS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=10.0, exclude_max=True),
    st.just(10.0),
    st.just(MATRIX500_LAM),
    st.floats(min_value=10.0, max_value=200.0),
)
#: Geometric parameters numpy draws by search.
PROBABILITIES = st.one_of(
    st.sampled_from([0.5, 0.35, JUST_ABOVE_THIRD]),
    st.floats(min_value=JUST_ABOVE_THIRD, max_value=1.0),
)
CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.builds(
            lambda low, span: ("integers", low, low + span),
            st.integers(min_value=-(2**31), max_value=2**31),
            SPANS,
        ),
        st.tuples(st.just("poisson"), LAMS),
        st.tuples(st.just("geometric"), PROBABILITIES),
    ),
    max_size=80,
)


def call(draws, name, *args):
    """One draw by name; numpy's scalars come back as Python numbers."""
    value = getattr(draws, name)(*args)
    return value.item() if isinstance(value, np.generic) else value


class TestDrawStream:
    @settings(max_examples=400, deadline=None)
    @given(
        seed=SEEDS,
        before=st.lists(st.integers(min_value=2, max_value=9), max_size=5),
        calls=CALLS,
        batch=st.sampled_from([1, 2, 3, 7, synthesis.RAW_BATCH]),
    )
    @example(seed=0, before=[7], calls=[("integers", 0, 7)], batch=1)
    @example(seed=0, before=[], calls=[("integers", 0, 1)], batch=1)
    @example(seed=0, before=[], calls=[("poisson", 13.714285714285717)] * 40, batch=3)
    # PTRS's third draw here floors a value in (-1, 0) to k = -1 and
    # rejects it; truncating would make it 0 and accept it.
    @example(seed=5849, before=[], calls=[("poisson", 10.0)] * 3, batch=synthesis.RAW_BATCH)
    def test_values_and_position_match_the_generator(self, seed, before, calls, batch):
        """``before`` holds the spans of ``integers`` calls made on the
        generator itself before the hand-off: an odd number leaves its
        half-word buffer pending, which the stream must use first."""
        numpy_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for span in before:
            assert numpy_rng.integers(0, span) == rng.integers(0, span)
        handoff = rng.bit_generator.state
        with raw_batch(batch):
            stream = DrawStream(rng)
            for name, *args in calls:
                assert call(stream, name, *args) == call(numpy_rng, name, *args), (name, args)
        assert_same_position(stream, handoff, numpy_rng)

    def test_odd_calls_before_the_hand_off_and_across_batches(self):
        for seed in range(20):
            numpy_rng = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            for _ in range(3):
                assert numpy_rng.integers(0, 7) == rng.integers(0, 7)
            handoff = rng.bit_generator.state
            assert handoff["has_uint32"] == 1
            with raw_batch(2):
                stream = DrawStream(rng)
                for i in range(50):
                    span = (1, 2, 7, 2048)[i % 4]
                    assert stream.integers(0, span) == numpy_rng.integers(0, span)
                    if i % 3 == 0:
                        assert stream.random() == numpy_rng.random()
                assert_same_position(stream, handoff, numpy_rng)

    def test_a_span_of_one_draws_nothing(self):
        stream, handoff = handed_off(5)
        assert [stream.integers(-3, -2) for _ in range(10)] == [-3] * 10
        assert consumed(stream) == 0 and stream.pending is None
        stream.integers(0, 2)
        assert consumed(stream) == 1 and stream.pending is not None
        assert stream.integers(9, 10) == 9
        assert consumed(stream) == 1 and stream.pending is not None

    @pytest.mark.parametrize(
        "lam", [0.0, 1e-9, 0.5, 3.2, 9.999999, 10.0, MATRIX500_LAM, 25.0, 200.0]
    )
    def test_poisson_runs_match(self, lam):
        # 20,000 draws at 10 pass PTRS's every branch, the k < 7 series
        # of loggam included, hundreds of times.
        draws = 20_000 if lam >= 10.0 else 2_000
        stream, handoff = handed_off(1992)
        numpy_rng = np.random.default_rng(1992)
        assert [stream.poisson(lam) for _ in range(draws)] == (
            numpy_rng.poisson(lam, draws).tolist()
        )
        assert_same_position(stream, handoff, numpy_rng)

    def test_poisson_at_zero_draws_nothing(self):
        stream, _ = handed_off(3)
        assert stream.poisson(0.0) == 0 and consumed(stream) == 0

    @pytest.mark.parametrize("p", [0.5, 0.35, JUST_ABOVE_THIRD, 1 / 3, 1.0])
    def test_geometric_runs_match(self, p):
        stream, handoff = handed_off(1992)
        numpy_rng = np.random.default_rng(1992)
        assert [stream.geometric(p) for _ in range(5_000)] == (
            numpy_rng.geometric(p, 5_000).tolist()
        )
        assert_same_position(stream, handoff, numpy_rng)

    @pytest.mark.parametrize(
        "name,args",
        [
            ("geometric", (float(np.nextafter(1 / 3, 0.0)),)),
            ("geometric", (0.3,)),
            ("geometric", (0.0,)),
            ("geometric", (1.5,)),
            ("geometric", (nan,)),
            ("poisson", (-1.0,)),
            ("poisson", (nan,)),
            ("poisson", (inf,)),
            ("integers", (3, 3)),
            ("integers", (3, 2)),
            ("integers", (0, 2**32)),
        ],
    )
    def test_unsupported_parameters_raise_without_drawing(self, name, args):
        stream, _ = handed_off(11)
        with pytest.raises(WorkloadError):
            getattr(stream, name)(*args)
        assert consumed(stream) == 0 and stream.pending is None

    def test_other_bit_generators_are_refused(self):
        with pytest.raises(WorkloadError, match="PCG64"):
            DrawStream(np.random.Generator(np.random.MT19937(1)))

    def test_loggam_is_log_gamma(self):
        # The series is exact to about 1e-15 from 7 up; below 7 it steps
        # down with one logarithm per unit.
        for x in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 6.5, 7.0, 12.0, 101.0]:
            assert loggam(x) == pytest.approx(lgamma(x), rel=1e-12, abs=1e-12), x


# -- the choice emulations ------------------------------------------------------


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

    def test_later_rounds_leave_the_table_unchanged(self):
        table = choice_table([FLOOR] * 40)
        p, cdf = list(table[0]), list(table[1])
        for seed in range(20):
            stream, _ = handed_off(seed)
            assert len(choice_without_replacement(stream, table, 40)) == 40
            assert consumed(stream) > 40  # a repeated draw forced a later round
        assert table == (p, cdf)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=SEEDS,
        length=st.integers(min_value=8, max_value=40),
        early=st.booleans(),
        calls=st.integers(min_value=2, max_value=4),
        data=st.data(),
    )
    def test_a_reused_table_matches_numpy_over_several_rounds(
        self, seed, length, early, calls, data
    ):
        """One block shape drawn ``calls`` times from one synthesizer, so
        every call after the first reuses its position table.  Drawing
        every free slot (or more) makes repeated draws near certain, so
        later rounds, which zero the taken entries, run on the table."""
        free = sorted(
            data.draw(st.sets(st.integers(0, length - 1), min_size=8, max_size=length))
        )
        count = len(free) + data.draw(st.integers(min_value=0, max_value=2))
        synthesizer = _Synthesizer(benchmark_by_name("small"), 0)
        synthesizer.stream, handoff = handed_off(seed)
        rng = np.random.default_rng(seed)
        span = max(1, length - 1)
        ramp = (
            [_LOAD_EARLY_WEIGHT - i / span for i in free]
            if early
            else [_STORE_LATE_WEIGHT + i / span for i in free]
        )
        weights = np.maximum(np.array(ramp), FLOOR)
        for _ in range(calls):
            got = synthesizer._positions(free, count, length, early)
            chosen = rng.choice(
                len(free), size=len(free), replace=False, p=weights / weights.sum()
            )
            assert got == sorted(free[int(c)] for c in chosen)
        assert len(synthesizer._position_tables) == 1
        assume(consumed(synthesizer.stream) > calls * len(free))  # a later round ran
        assert_same_position(synthesizer.stream, handoff, rng)

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
        synthesizer.stream, handoff = handed_off(seed)
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
        assert_same_position(synthesizer.stream, handoff, rng)


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
        stream, handoff = handed_off(seed)
        expected = int(numpy_rng.choice(len(p), p=p))
        assert bisect_right(choice_cdf(p.tolist()), stream.random()) == expected
        assert_same_position(stream, handoff, numpy_rng)

    def test_module_table_is_numpy_normalized(self):
        names = list(_CONSTRUCT_WEIGHTS)
        weights = np.array([_CONSTRUCT_WEIGHTS[n] for n in names])
        weights /= weights.sum()
        assert _CONSTRUCT_KINDS == names
        numpy_rng = np.random.default_rng(19920519)
        stream, handoff = handed_off(19920519)
        for _ in range(2_000):
            expected = names[int(numpy_rng.choice(len(names), p=weights))]
            assert _CONSTRUCT_KINDS[bisect_right(_CONSTRUCT_CDF, stream.random())] == expected
        assert_same_position(stream, handoff, numpy_rng)
