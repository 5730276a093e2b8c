"""Tests for the deterministic RNG wrapper."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import SeededRng


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        first = [SeededRng(7).random() for _ in range(5)]
        second = [SeededRng(7).random() for _ in range(5)]
        assert first != []
        assert [SeededRng(7).random() for _ in range(5)] == first == second

    def test_different_seeds_differ(self):
        assert SeededRng(1).random() != SeededRng(2).random()

    def test_child_streams_are_deterministic(self):
        a = SeededRng(3).child("x").randint(0, 10**9)
        b = SeededRng(3).child("x").randint(0, 10**9)
        assert a == b

    def test_child_streams_are_independent(self):
        base = SeededRng(3)
        assert base.child("x").randint(0, 10**9) != base.child("y").randint(0, 10**9)

    def test_seed_property(self):
        assert SeededRng(11).seed == 11

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.random(),
            lambda rng: rng.randint(0, 10**9),
            lambda rng: rng.uniform(-5.0, 5.0),
            lambda rng: rng.choice(list(range(1000))),
            lambda rng: rng.sample(list(range(1000)), 5),
            lambda rng: rng.sample_indices(10**6, 5),
            lambda rng: rng.shuffle(list(range(50))),
            lambda rng: rng.weighted_choice(list(range(100)), [1.0] * 100),
            lambda rng: rng.bounded_int_lognormal(6.0, 2.0, 1, 10**6),
            lambda rng: [rng.maybe(0.5) for _ in range(64)],
        ],
        ids=[
            "random",
            "randint",
            "uniform",
            "choice",
            "sample",
            "sample_indices",
            "shuffle",
            "weighted_choice",
            "bounded_int_lognormal",
            "maybe",
        ],
    )
    def test_every_draw_replays_from_its_seed(self, draw):
        first, second = SeededRng("replay"), SeededRng("replay")
        assert [draw(first) for _ in range(3)] == [draw(second) for _ in range(3)]


class TestSampling:
    def test_choice_returns_member(self, rng):
        items = ["a", "b", "c"]
        assert rng.choice(items) in items

    def test_sample_is_clamped(self, rng):
        assert sorted(rng.sample([1, 2, 3], 10)) == [1, 2, 3]

    def test_sample_indices_distinct_and_in_range(self, rng):
        result = rng.sample_indices(10**9, 50)
        assert len(result) == len(set(result)) == 50
        assert all(0 <= index < 10**9 for index in result)

    def test_sample_indices_is_clamped(self, rng):
        assert sorted(rng.sample_indices(4, 10)) == [0, 1, 2, 3]
        assert rng.sample_indices(0, 3) == []

    def test_sample_distinct(self, rng):
        result = rng.sample(list(range(100)), 20)
        assert len(result) == len(set(result)) == 20

    def test_shuffle_preserves_elements(self, rng):
        items = list(range(30))
        shuffled = rng.shuffle(items)
        assert sorted(shuffled) == items
        assert items == list(range(30)), "original must not be mutated"

    def test_weighted_choice_respects_zero_weight(self, rng):
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_bounded_int_lognormal_respects_bounds(self, rng):
        values = [rng.bounded_int_lognormal(4.0, 1.0, 10, 100) for _ in range(200)]
        assert all(10 <= value <= 100 for value in values)

    def test_maybe_extremes(self, rng):
        assert not any(rng.maybe(0.0) for _ in range(20))
        assert all(rng.maybe(1.0) for _ in range(20))


class TestPropertyBased:
    @given(seed=st.integers(min_value=0, max_value=10**6), k=st.integers(min_value=0, max_value=20))
    def test_sample_never_exceeds_population(self, seed, k):
        rng = SeededRng(seed)
        population = list(range(10))
        result = rng.sample(population, k)
        assert len(result) == min(k, len(population))
        assert set(result) <= set(population)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_uniform_within_bounds(self, seed):
        rng = SeededRng(seed)
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        low=st.integers(min_value=-100, max_value=0),
        high=st.integers(min_value=1, max_value=100),
    )
    def test_randint_within_bounds(self, seed, low, high):
        value = SeededRng(seed).randint(low, high)
        assert low <= value <= high


def test_choice_empty_sequence_raises(rng):
    with pytest.raises(IndexError):
        rng.choice([])
