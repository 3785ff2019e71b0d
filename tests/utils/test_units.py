"""Unit conversion tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.units import (
    WORD_BYTES,
    is_power_of_two,
    kw_to_words,
    log2_int,
    words_to_bytes,
)


class TestKilowords:
    def test_one_kw_is_1024_words(self):
        assert kw_to_words(1) == 1024

    def test_paper_cache_sizes(self):
        # The paper's L1 range: 1 KW (4 KB) to 32 KW (128 KB).
        assert words_to_bytes(kw_to_words(1)) == 4 * 1024
        assert words_to_bytes(kw_to_words(32)) == 128 * 1024

    def test_fractional_kw(self):
        assert kw_to_words(0.5) == 512

    def test_non_integral_word_count_rejected(self):
        # 0.3 KW is 307.2 words; silent truncation to 307 words used to
        # fabricate a non-power-of-two geometry.
        with pytest.raises(ConfigurationError):
            kw_to_words(0.3)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            kw_to_words(0)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            kw_to_words(-4)

    @given(st.integers(min_value=1, max_value=1 << 20))
    def test_words_kw_roundtrip(self, words):
        # Every whole number of words, spelled in kilowords, comes back.
        assert kw_to_words(words / 1024) == words


class TestBytes:
    def test_word_is_four_bytes(self):
        assert WORD_BYTES == 4

    @given(st.integers(min_value=0, max_value=1 << 24))
    def test_roundtrip(self, words):
        assert words_to_bytes(words) == WORD_BYTES * words


class TestPowersOfTwo:
    def test_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_non_powers(self):
        for value in (0, -1, -8, 3, 6, 12, 1023):
            assert not is_power_of_two(value)

    def test_log2_int(self):
        assert log2_int(1) == 0
        assert log2_int(4096) == 12

    def test_log2_rejects_non_power(self):
        with pytest.raises(ConfigurationError):
            log2_int(12)

    @given(st.integers(min_value=0, max_value=62))
    def test_log2_inverse(self, exponent):
        assert log2_int(1 << exponent) == exponent
