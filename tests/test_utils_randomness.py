"""Tests for repro.utils.randomness."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.utils.randomness import derive_seed, make_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "landmarks") == derive_seed(42, "landmarks")

    def test_different_tags_differ(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_different_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_range(self):
        value = derive_seed(123456789, "x")
        assert 0 <= value < 2**64

    def test_negative_seed_allowed(self):
        assert derive_seed(-5, "a") != derive_seed(5, "a")

    @given(st.integers(), st.text(max_size=30))
    def test_always_in_range(self, seed, tag):
        value = derive_seed(seed, tag)
        assert 0 <= value < 2**64


class TestMakeRng:
    def test_reproducible_stream(self):
        a = make_rng(7, "x")
        b = make_rng(7, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_tag_changes_stream(self):
        a = make_rng(7, "x").random()
        b = make_rng(7, "y").random()
        assert a != b

    def test_empty_tag_uses_raw_seed(self):
        import random

        assert make_rng(99).random() == random.Random(99).random()
