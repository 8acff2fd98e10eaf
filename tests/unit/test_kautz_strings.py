"""Unit tests for the low-level Kautz string helpers."""

from __future__ import annotations

import pytest

from repro.kautz import strings as ks

from oracles import shift_append


class TestValidation:
    def test_valid_strings(self):
        for value in ("0", "01", "010", "212", "0120", "21021"):
            assert ks.is_kautz_string(value, base=2)

    def test_adjacent_repeat_is_invalid(self):
        assert not ks.is_kautz_string("001", base=2)
        assert not ks.is_kautz_string("110", base=2)
        assert not ks.is_kautz_string("0122", base=2)

    def test_symbol_outside_alphabet_is_invalid(self):
        assert not ks.is_kautz_string("013", base=2)
        assert not ks.is_kautz_string("0a1", base=2)

    def test_empty_requires_flag(self):
        assert not ks.is_kautz_string("", base=2)
        assert ks.is_kautz_string("", base=2, allow_empty=True)

    def test_validate_raises_with_position_info(self):
        with pytest.raises(ks.KautzStringError):
            ks.validate_kautz_string("011", base=2)

    def test_base_bounds(self):
        with pytest.raises(ks.KautzStringError):
            ks.alphabet(0)
        with pytest.raises(ks.KautzStringError):
            ks.alphabet(9)
        assert ks.alphabet(3) == "0123"


class TestPrefixHelpers:
    def test_is_prefix(self):
        assert ks.is_prefix("01", "0102")
        assert ks.is_prefix("", "0102")
        assert not ks.is_prefix("02", "0102")

    def test_common_prefix(self):
        assert ks.common_prefix("0102", "0121") == "01"
        assert ks.common_prefix("0102", "0102") == "0102"
        assert ks.common_prefix("0102", "2102") == ""

    def test_allowed_symbols_excludes_previous(self):
        assert ks.allowed_symbols("0", base=2) == ["1", "2"]
        assert ks.allowed_symbols("1", base=2) == ["0", "2"]
        assert ks.allowed_symbols(None, base=2) == ["0", "1", "2"]
        assert ks.allowed_symbols("", base=2) == ["0", "1", "2"]


class TestExtensions:
    def test_min_extension_examples(self):
        assert ks.min_extension("", 3, base=2) == "010"
        assert ks.min_extension("02", 4, base=2) == "0201"
        assert ks.min_extension("21", 4, base=2) == "2101"

    def test_max_extension_examples(self):
        assert ks.max_extension("", 3, base=2) == "212"
        assert ks.max_extension("02", 4, base=2) == "0212"
        assert ks.max_extension("20", 4, base=2) == "2021"

    def test_extension_of_full_length_is_identity(self):
        assert ks.min_extension("010", 3, base=2) == "010"
        assert ks.max_extension("010", 3, base=2) == "010"

    def test_extension_longer_prefix_raises(self):
        with pytest.raises(ks.KautzStringError):
            ks.min_extension("0102", 3, base=2)

    def test_min_le_max_for_all_prefixes(self):
        for prefix in ("0", "1", "2", "01", "21", "020", "121"):
            assert ks.min_extension(prefix, 6) <= ks.max_extension(prefix, 6)


class TestCounting:
    def test_space_size_formula(self):
        assert ks.space_size(2, 1) == 3
        assert ks.space_size(2, 2) == 6
        assert ks.space_size(2, 3) == 12
        assert ks.space_size(2, 4) == 24
        assert ks.space_size(3, 2) == 12

    def test_strings_with_prefix_count(self):
        assert ks.strings_with_prefix_count("", 3, base=2) == 12
        assert ks.strings_with_prefix_count("0", 3, base=2) == 4
        assert ks.strings_with_prefix_count("01", 3, base=2) == 2
        assert ks.strings_with_prefix_count("010", 3, base=2) == 1
        assert ks.strings_with_prefix_count("0102", 3, base=2) == 0


class TestRankUnrank:
    def test_rank_unrank_roundtrip_k3(self):
        for index in range(ks.space_size(2, 3)):
            value = ks.unrank(index, 3, base=2)
            assert ks.rank(value, base=2) == index

    def test_rank_is_lexicographic(self):
        values = [ks.unrank(index, 4, base=2) for index in range(ks.space_size(2, 4))]
        assert values == sorted(values)

    def test_first_and_last(self):
        assert ks.unrank(0, 3, base=2) == "010"
        assert ks.unrank(ks.space_size(2, 3) - 1, 3, base=2) == "212"

    def test_unrank_out_of_range(self):
        with pytest.raises(ks.KautzStringError):
            ks.unrank(-1, 3, base=2)
        with pytest.raises(ks.KautzStringError):
            ks.unrank(ks.space_size(2, 3), 3, base=2)

    def test_successor_predecessor(self):
        assert ks.successor("010", base=2) == "012"
        assert ks.predecessor("012", base=2) == "010"
        assert ks.predecessor("010", base=2) is None
        assert ks.successor("212", base=2) is None

    def test_kautz_strings_with_prefix_enumeration(self):
        strings = ks.kautz_strings_with_prefix("01", 4, base=2)
        assert strings == ["0101", "0102", "0120", "0121"]
        assert ks.kautz_strings_with_prefix("0102", 3, base=2) == []


class TestGraphOperations:
    def test_shift_append(self):
        assert shift_append("012", "0", base=2) == "120"
        assert shift_append("012", "1", base=2) == "121"

    def test_shift_append_rejects_repeat(self):
        with pytest.raises(ks.KautzStringError):
            shift_append("012", "2", base=2)

    def test_splice_with_overlap(self):
        assert ks.splice("212", "120", base=2) == "2120"
        assert ks.splice("212", "12021", base=2) == "212021"

    def test_splice_without_overlap(self):
        assert ks.splice("01", "21", base=2) == "0121"

    def test_splice_full_overlap(self):
        assert ks.splice("012", "012", base=2) == "012"

    def test_splice_always_valid(self):
        import itertools

        strings = [ks.unrank(i, 3) for i in range(ks.space_size(2, 3))]
        for first, second in itertools.product(strings[:6], strings[:6]):
            assert ks.is_kautz_string(ks.splice(first, second), base=2)
