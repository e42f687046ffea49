"""Tests for the deterministic RNG registry."""

import numpy as np

from repro.rng import RngRegistry


class TestStreamIdentity:
    def test_same_name_same_object(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_different_names_different_objects(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is not registry.stream("b")

    def test_multi_token_names(self):
        registry = RngRegistry(1)
        assert registry.stream("node", 3) is registry.stream("node", 3)
        assert registry.stream("node", 3) is not registry.stream("node", 4)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = RngRegistry(42).stream("x").random(5)
        b = RngRegistry(42).stream("x").random(5)
        assert np.array_equal(a, b)

    def test_different_seed_different_draws(self):
        a = RngRegistry(42).stream("x").random(5)
        b = RngRegistry(43).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_streams_independent_of_creation_order(self):
        first = RngRegistry(7)
        __ = first.stream("early").random(100)
        late = first.stream("late").random(3)

        second = RngRegistry(7)
        late_only = second.stream("late").random(3)
        assert np.array_equal(late, late_only)

    def test_int_and_string_tokens_distinct(self):
        registry = RngRegistry(7)
        assert registry.stream("a", 1) is not registry.stream("a", "1")


class TestDerivedSeeds:
    def test_derive_seed_stable(self):
        assert (RngRegistry(9).derive_seed("plb")
                == RngRegistry(9).derive_seed("plb"))

    def test_derive_seed_varies_by_name(self):
        registry = RngRegistry(9)
        assert registry.derive_seed("a") != registry.derive_seed("b")

    def test_fork_is_deterministic(self):
        a = RngRegistry(5).fork("child").stream("s").random(4)
        b = RngRegistry(5).fork("child").stream("s").random(4)
        assert np.array_equal(a, b)

    def test_fork_differs_from_parent(self):
        parent = RngRegistry(5)
        child = parent.fork("child")
        assert child.root_seed != parent.root_seed
