"""Unit tests for the KautzSpace namespace wrapper."""

from __future__ import annotations

import pytest

from repro.kautz import strings as ks
from repro.kautz.space import KautzSpace
from repro.sim.rng import DeterministicRNG


class TestKautzSpace:
    def test_size_matches_formula(self):
        assert KautzSpace(2, 3).size == 12
        assert len(KautzSpace(2, 5)) == 3 * 2 ** 4

    def test_iteration_is_sorted_and_complete(self):
        space = KautzSpace(2, 3)
        values = list(space)
        assert len(values) == space.size
        assert values == sorted(values)
        assert all(ks.is_kautz_string(value, base=2) for value in values)

    def test_membership(self):
        space = KautzSpace(2, 3)
        assert "010" in space
        assert "012" in space
        assert "0102" not in space  # wrong length
        assert "011" not in space  # invalid string
        assert 42 not in space  # wrong type

    def test_first_and_last(self):
        space = KautzSpace(2, 4)
        assert space.first() == "0101"
        assert space.last() == "2121"

    def test_rank_unrank_consistency(self):
        space = KautzSpace(2, 4)
        for index in (0, 5, 11, space.size - 1):
            assert space.rank(space.unrank(index)) == index

    def test_rank_rejects_wrong_length(self):
        with pytest.raises(ks.KautzStringError):
            KautzSpace(2, 3).rank("01")

    def test_sample_is_reproducible_and_in_space(self):
        space = KautzSpace(2, 6)
        first = space.sample(DeterministicRNG(3), count=10)
        second = space.sample(DeterministicRNG(3), count=10)
        assert first == second
        assert all(value in space for value in first)

    def test_sample_negative_count_raises(self):
        with pytest.raises(ValueError):
            KautzSpace(2, 3).sample(DeterministicRNG(1), count=-1)

    def test_with_prefix(self):
        assert ks.kautz_strings_with_prefix("01", 4, base=2) == ["0101", "0102", "0120", "0121"]

    def test_invalid_parameters(self):
        with pytest.raises(ks.KautzStringError):
            KautzSpace(2, 0)
        with pytest.raises(ks.KautzStringError):
            KautzSpace(0, 3)
