"""Deterministic RNG tests."""

import numpy as np

from repro.utils.rng import spawn_rng, stable_seed


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("gcc", 1) == stable_seed("gcc", 1)

    def test_distinct_labels(self):
        assert stable_seed("gcc") != stable_seed("tex")

    def test_order_matters(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_fits_in_63_bits(self):
        assert 0 <= stable_seed("anything", 123) < (1 << 63)

    def test_int_and_str_parts_mix(self):
        assert stable_seed("b", 1) != stable_seed("b1")


class TestSpawnRng:
    def test_same_labels_same_stream(self):
        a = spawn_rng(42, "gcc", "data").integers(0, 1 << 30, size=8)
        b = spawn_rng(42, "gcc", "data").integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_different_labels_differ(self):
        a = spawn_rng(42, "gcc").integers(0, 1 << 30, size=8)
        b = spawn_rng(42, "tex").integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)

    def test_different_base_seed_differs(self):
        a = spawn_rng(1, "gcc").integers(0, 1 << 30, size=8)
        b = spawn_rng(2, "gcc").integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)

    def test_independence_from_suite_composition(self):
        # Adding another benchmark must not perturb an existing stream.
        before = spawn_rng(9, "gcc").integers(0, 1 << 30, size=8)
        _ = spawn_rng(9, "new-benchmark").integers(0, 1 << 30, size=8)
        after = spawn_rng(9, "gcc").integers(0, 1 << 30, size=8)
        assert np.array_equal(before, after)
