"""Unit tests for the deterministic RNG helpers."""

from __future__ import annotations

import pytest

from repro.sim.rng import DeterministicRNG, derive_seed


class TestDeriveSeed:
    def test_same_inputs_same_seed(self):
        assert derive_seed(42, "queries") == derive_seed(42, "queries")

    def test_different_labels_different_seed(self):
        assert derive_seed(42, "queries") != derive_seed(42, "topology")

    def test_different_base_different_seed(self):
        assert derive_seed(1, "queries") != derive_seed(2, "queries")

    def test_multiple_components(self):
        assert derive_seed(1, "a", 2, 3.5) == derive_seed(1, "a", 2, 3.5)
        assert derive_seed(1, "a", 2, 3.5) != derive_seed(1, "a", 2, 3.6)


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        first = [DeterministicRNG(5).random() for _ in range(10)]
        second = [DeterministicRNG(5).random() for _ in range(10)]
        assert first == second

    def test_substreams_are_independent_and_reproducible(self):
        root = DeterministicRNG(5)
        a1 = root.substream("a").random()
        b1 = root.substream("b").random()
        a2 = DeterministicRNG(5).substream("a").random()
        assert a1 == a2
        assert a1 != b1

    def test_uniform_respects_bounds(self):
        rng = DeterministicRNG(1)
        for _ in range(200):
            value = rng.uniform(3.0, 7.0)
            assert 3.0 <= value <= 7.0

    def test_randint_inclusive_bounds(self):
        rng = DeterministicRNG(1)
        values = {rng.randint(0, 3) for _ in range(300)}
        assert values == {0, 1, 2, 3}

    def test_choice_returns_member(self):
        rng = DeterministicRNG(1)
        items = ["a", "b", "c"]
        for _ in range(20):
            assert rng.choice(items) in items

    def test_sample_has_no_duplicates(self):
        rng = DeterministicRNG(1)
        sample = rng.sample(list(range(100)), 10)
        assert len(sample) == len(set(sample)) == 10

    def test_shuffle_is_permutation(self):
        rng = DeterministicRNG(1)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_zipf_rank_within_range_and_skewed(self):
        rng = DeterministicRNG(1)
        ranks = [rng.zipf(1.2, 50) for _ in range(2000)]
        assert all(1 <= rank <= 50 for rank in ranks)
        ones = sum(1 for rank in ranks if rank == 1)
        fifties = sum(1 for rank in ranks if rank == 50)
        assert ones > fifties

    def test_zipf_parameter_validation(self):
        rng = DeterministicRNG(1)
        with pytest.raises(ValueError):
            rng.zipf(0.0, 10)
        with pytest.raises(ValueError):
            rng.zipf(1.0, 0)

    def test_exponential_positive_and_mean_validated(self):
        rng = DeterministicRNG(1)
        assert rng.exponential(2.0) > 0.0
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_seed_property(self):
        assert DeterministicRNG(99).seed == 99
