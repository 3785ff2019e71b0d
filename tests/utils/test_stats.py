"""Statistics helper tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    harmonic_mean,
    weighted_arithmetic_mean,
    weighted_harmonic_mean,
)

positive_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


class TestWeightedHarmonicMean:
    def test_equal_weights_match_harmonic_mean(self):
        values = [1.0, 2.0, 4.0]
        assert weighted_harmonic_mean(values, [1, 1, 1]) == pytest.approx(
            harmonic_mean(values)
        )

    def test_single_value(self):
        assert weighted_harmonic_mean([3.0], [5.0]) == pytest.approx(3.0)

    def test_zero_weight_ignores_value(self):
        assert weighted_harmonic_mean([1.0, 100.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_cpi_averaging_example(self):
        # Two benchmarks with CPI 1.25 and 2.0, the first doing 3x the work:
        # total cycles / total instructions.
        cpi = weighted_harmonic_mean([1.25, 2.0], [3.0, 1.0])
        assert cpi == pytest.approx(4.0 / (3.0 / 1.25 + 1.0 / 2.0))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            weighted_harmonic_mean([1.0], [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            weighted_harmonic_mean([], [])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            weighted_harmonic_mean([0.0, 1.0], [1.0, 1.0])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            weighted_harmonic_mean([1.0], [0.0])

    @given(st.lists(positive_floats, min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        mean = harmonic_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(st.lists(positive_floats, min_size=1, max_size=20))
    def test_harmonic_below_arithmetic(self, values):
        weights = [1.0] * len(values)
        hmean = weighted_harmonic_mean(values, weights)
        amean = weighted_arithmetic_mean(values, weights)
        assert hmean <= amean + 1e-9


class TestOtherMeans:
    def test_weighted_arithmetic(self):
        assert weighted_arithmetic_mean([1.0, 3.0], [1.0, 3.0]) == pytest.approx(2.5)
