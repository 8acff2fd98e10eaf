"""Property-based tests for the Kautz string substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.armada import ArmadaSystem
from repro.core.pira import RangeQueryResult, _QueryState, _SubQuery
from repro.kautz import strings as ks
from repro.kautz.region import KautzRegion


def kautz_strings(min_length=1, max_length=10, base=2):
    """Strategy producing valid Kautz strings via their rank."""

    @st.composite
    def build(draw):
        length = draw(st.integers(min_value=min_length, max_value=max_length))
        index = draw(st.integers(min_value=0, max_value=ks.space_size(base, length) - 1))
        return ks.unrank(index, length, base=base)

    return build()


def kautz_prefixes(max_length=8, base=2):
    """Strategy producing valid Kautz prefixes (possibly empty)."""

    @st.composite
    def build(draw):
        length = draw(st.integers(min_value=0, max_value=max_length))
        if length == 0:
            return ""
        index = draw(st.integers(min_value=0, max_value=ks.space_size(base, length) - 1))
        return ks.unrank(index, length, base=base)

    return build()


class TestStringProperties:
    @given(kautz_strings())
    def test_generated_strings_are_valid(self, value):
        assert ks.is_kautz_string(value, base=2)

    @given(kautz_strings(min_length=3, max_length=8))
    def test_rank_unrank_roundtrip(self, value):
        assert ks.unrank(ks.rank(value), len(value)) == value

    @given(kautz_prefixes(max_length=6), st.integers(min_value=6, max_value=10))
    def test_extensions_are_valid_and_ordered(self, prefix, length):
        low = ks.min_extension(prefix, length)
        high = ks.max_extension(prefix, length)
        assert ks.is_kautz_string(low, base=2)
        assert ks.is_kautz_string(high, base=2)
        assert low.startswith(prefix) and high.startswith(prefix)
        assert low <= high

    @given(kautz_prefixes(max_length=5), st.integers(min_value=5, max_value=8))
    def test_extension_bounds_are_tight(self, prefix, length):
        """Every extension of the prefix lies between min and max extensions."""
        low = ks.min_extension(prefix, length)
        high = ks.max_extension(prefix, length)
        for value in ks.kautz_strings_with_prefix(prefix, length)[:32]:
            assert low <= value <= high

    @given(kautz_strings(max_length=6), kautz_strings(max_length=6))
    def test_splice_is_valid_and_has_both_parts(self, first, second):
        spliced = ks.splice(first, second)
        assert ks.is_kautz_string(spliced, base=2)
        assert spliced.startswith(first) or first.startswith(spliced)
        assert spliced.endswith(second)
        assert len(spliced) <= len(first) + len(second)

    @given(kautz_strings(min_length=4, max_length=8))
    def test_successor_is_next_in_order(self, value):
        nxt = ks.successor(value)
        if nxt is not None:
            assert nxt > value
            assert ks.rank(nxt) == ks.rank(value) + 1


def walk_verdict(value: str, base: int, allow_empty: bool):
    """The per-symbol walk's verdict: ``None`` or its error text."""
    try:
        ks._validate_impl(value, base, allow_empty)
    except ks.KautzStringError as exc:
        return str(exc)
    return None


@st.composite
def candidate_strings(draw):
    """``(value, base)``: alphabet symbols (doubled ones included) mixed
    with stray characters, valid Kautz strings, and arbitrary text."""
    base = draw(st.integers(min_value=1, max_value=8))
    symbols = ks.alphabet(base)
    value = draw(
        st.one_of(
            st.text(alphabet=symbols + "9x -", max_size=12),
            st.text(alphabet=symbols, max_size=12),
            kautz_strings(min_length=1, max_length=6, base=base),
            st.text(max_size=8),
        )
    )
    return value, base


class TestValidationIsTheSymbolWalk:
    """The memo-free check (strip the alphabet, look for doubled symbols)
    gives the per-symbol walk's verdict, and its error text when invalid."""

    @settings(max_examples=500)
    @given(candidate_strings(), st.booleans())
    def test_verdict_matches_the_walk(self, candidate, allow_empty):
        value, base = candidate
        expected = walk_verdict(value, base, allow_empty)
        assert ks.is_kautz_string(value, base=base, allow_empty=allow_empty) == (expected is None)
        if expected is None:
            assert ks.validate_kautz_string(value, base=base, allow_empty=allow_empty) is value
        else:
            with pytest.raises(ks.KautzStringError) as raised:
                ks.validate_kautz_string(value, base=base, allow_empty=allow_empty)
            assert str(raised.value) == expected


class TestRegionProperties:
    @given(
        st.integers(min_value=5, max_value=7),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_region_size_matches_rank_difference(self, length, seed_a, seed_b):
        size = ks.space_size(2, length)
        first = ks.unrank(seed_a % size, length)
        second = ks.unrank(seed_b % size, length)
        low, high = min(first, second), max(first, second)
        region = KautzRegion(low, high)
        assert region.size == ks.rank(high) - ks.rank(low) + 1

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        kautz_prefixes(max_length=5),
    )
    def test_contains_prefix_agrees_with_enumeration(self, seed_a, seed_b, prefix):
        length = 6
        size = ks.space_size(2, length)
        first = ks.unrank(seed_a % size, length)
        second = ks.unrank(seed_b % size, length)
        region = KautzRegion(min(first, second), max(first, second))
        expected = any(member.startswith(prefix) for member in region)
        assert region.contains_prefix(prefix) == expected

    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_split_by_first_symbol_partitions_region(self, seed_a, seed_b):
        length = 6
        size = ks.space_size(2, length)
        first = ks.unrank(seed_a % size, length)
        second = ks.unrank(seed_b % size, length)
        region = KautzRegion(min(first, second), max(first, second))
        parts = region.split_by_first_symbol()
        union = []
        for part in parts:
            assert part.common_prefix() != "" or region.common_prefix() != ""
            union.extend(part)
        assert sorted(union) == sorted(region)
        assert len(union) == len(set(union))


def extension_verdict(low: str, high: str, base: int, prefix: str) -> bool:
    """The pruning predicate as it was defined before it became a prefix
    comparison: does the interval of the prefix's extensions meet
    ``[low, high]``?"""
    ks.validate_kautz_string(prefix, base=base, allow_empty=True)
    length = len(low)
    if len(prefix) > length:
        head = prefix[:length]
        return ks.is_kautz_string(head, base=base) and low <= head <= high
    lowest = ks.min_extension(prefix, length, base=base)
    highest = ks.max_extension(prefix, length, base=base)
    return lowest <= high and highest >= low


def kautz_prefixes_upto(length: int, base: int):
    """Every Kautz prefix of at most ``length`` symbols, the empty one included."""
    result = [""]
    for size in range(1, length + 1):
        result.extend(ks.kautz_strings_with_prefix("", size, base=base))
    return result


class TestContainsPrefixIsTheExtensionTest:
    #: (base, largest region length); base 3 stops at 3 symbols to keep the
    #: pair-times-prefix product near a few hundred thousand checks
    SPACES = [(2, length) for length in range(1, 6)] + [(3, length) for length in range(1, 4)]

    @pytest.mark.parametrize("base, length", SPACES)
    def test_every_region_and_every_prefix(self, base, length):
        strings = ks.kautz_strings_with_prefix("", length, base=base)
        prefixes = kautz_prefixes_upto(length + 2, base)
        for first, low in enumerate(strings):
            for high in strings[first:]:
                region = KautzRegion(low, high, base=base)
                for prefix in prefixes:
                    assert region.contains_prefix(prefix) == extension_verdict(
                        low, high, base, prefix
                    ), (low, high, prefix)

    @given(
        st.sampled_from([2, 3]).flatmap(
            lambda base: st.tuples(
                st.just(base),
                kautz_strings(32, 32, base=base),
                kautz_strings(32, 32, base=base),
                kautz_prefixes(max_length=34, base=base),
            )
        )
    )
    def test_random_32_symbol_regions(self, case):
        base, first, second, prefix = case
        low, high = min(first, second), max(first, second)
        # a prefix that shares a head with an endpoint lands on the boundary
        for candidate in (prefix, low[: len(prefix) // 2] + prefix[len(prefix) // 2 :]):
            if ks.is_kautz_string(candidate, base=base, allow_empty=True):
                region = KautzRegion(low, high, base=base)
                assert region.contains_prefix(candidate) == extension_verdict(
                    low, high, base, candidate
                )


ARMADA = ArmadaSystem(num_peers=64, seed=5, attribute_interval=(0.0, 1000.0))


class TestPiraInlinePruning:
    """``PiraExecutor._process`` inlines ``contains_prefix``: the neighbours it
    forwards to are exactly those the extension test keeps."""

    @settings(max_examples=40)
    @given(
        kautz_strings(32, 32),
        kautz_strings(32, 32),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=31),
    )
    def test_forwarded_neighbours_are_the_extension_verdict(self, first, second, dest, cut):
        low, high = min(first, second), max(first, second)
        # narrow regions prune more: also try the tail of ``low[:cut]``'s extensions
        for region in (KautzRegion(low, high), KautzRegion(low, ks.max_extension(low[:cut], 32))):
            pira = ARMADA.pira
            forwarded = []
            pira._forward_message = lambda sender, receiver, *rest: forwarded.append(
                (sender, receiver)
            )
            try:
                state = _QueryState(result=RangeQueryResult(origin="", query_id=0))
                state.branches.append(_SubQuery(region=region, dest_level=dest))
                expected = []
                for peer in ARMADA.network.peers():
                    for level in range(dest):
                        pira._process(peer, level, 0, 0, state)
                        drop = dest - level - 1
                        expected.extend(
                            (peer.peer_id, neighbor)
                            for neighbor in ARMADA.network.out_neighbors_view(peer.peer_id)
                            if extension_verdict(region.low, region.high, 2, neighbor[drop:])
                        )
            finally:
                del pira._forward_message
            assert forwarded == expected
