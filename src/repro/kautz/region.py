"""Kautz regions (Definition 1 of the paper).

The Kautz region ``<low, high>`` is the set of length-``k`` Kautz strings
``s`` with ``low <= s <= high`` in lexicographic order.  Armada's
``Single_hash`` maps an attribute-value range onto exactly such a region, and
PIRA's pruning test is "does the region contain a string with prefix ``p``?",
which this module answers with one comparison of equal-length prefixes
(:meth:`KautzRegion.contains_prefix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List

from repro.kautz import strings as ks


@dataclass(frozen=True, slots=True)
class KautzRegion:
    """A contiguous lexicographic region of fixed-length Kautz strings."""

    low: str
    high: str
    base: int = 2

    def __post_init__(self) -> None:
        ks.validate_kautz_string(self.low, base=self.base)
        ks.validate_kautz_string(self.high, base=self.base)
        if len(self.low) != len(self.high):
            raise ks.KautzStringError(
                f"region endpoints must have equal length: {self.low!r} vs {self.high!r}"
            )
        if self.low > self.high:
            raise ks.KautzStringError(
                f"region low endpoint {self.low!r} exceeds high endpoint {self.high!r}"
            )

    @property
    def length(self) -> int:
        """Length ``k`` of the region's strings."""
        return len(self.low)

    @property
    def size(self) -> int:
        """Number of Kautz strings in the region."""
        return ks.rank(self.high, base=self.base) - ks.rank(self.low, base=self.base) + 1

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, str) or len(value) != self.length:
            return False
        if not ks.is_kautz_string(value, base=self.base):
            return False
        return self.low <= value <= self.high

    def __iter__(self) -> Iterator[str]:
        start = ks.rank(self.low, base=self.base)
        end = ks.rank(self.high, base=self.base)
        for index in range(start, end + 1):
            yield ks.unrank(index, self.length, base=self.base)

    def common_prefix(self) -> str:
        """Longest common prefix of the two endpoints (``ComT`` in the paper)."""
        return ks.common_prefix(self.low, self.high)

    def contains_prefix(self, prefix: str) -> bool:
        """True when some string of the region has ``prefix`` as a prefix.

        This is PIRA's forwarding predicate.  Precondition: ``prefix`` is a
        Kautz string (or empty) of the region's base; every caller passes a
        PeerID or a suffix of one, and PeerIDs are validated at join.

        With ``k = min(len(prefix), L)`` the verdict is
        ``low[:k] <= prefix[:k] <= high[:k]``.  For ``len(prefix) >= L`` that
        is plain membership of ``prefix[:L]``.  For a shorter prefix the
        region holds an extension of it iff its smallest extension is at
        most ``high`` and its largest at least ``low``.  ``high`` is itself a
        Kautz extension of ``high[:k]``, so the smallest extension of
        ``prefix`` is at most ``high`` iff ``prefix <= high[:k]``; the ``low``
        side is symmetric.
        """
        k = min(len(prefix), len(self.low))
        return self.low[:k] <= prefix[:k] <= self.high[:k]

    def intersect_prefix_count(self, prefix: str) -> int:
        """Number of strings in the region that extend ``prefix``."""
        if not self.contains_prefix(prefix):
            return 0
        if len(prefix) >= self.length:
            return 1
        lowest = max(self.low, ks.min_extension(prefix, self.length, base=self.base))
        highest = min(self.high, ks.max_extension(prefix, self.length, base=self.base))
        return ks.rank(highest, base=self.base) - ks.rank(lowest, base=self.base) + 1

    def split_by_first_symbol(self) -> List["KautzRegion"]:
        """Split into sub-regions whose endpoints share a non-empty prefix.

        PIRA requires the two endpoints of the processed region to share a
        common prefix.  When they do not (their first symbols differ), the
        region is split into at most ``base + 1`` sub-regions -- one per first
        symbol -- each of which trivially has a non-empty common prefix.  The
        paper notes at most three sub-regions are needed for base 2.
        """
        if self.low[0] == self.high[0]:
            return [self]
        subregions: List[KautzRegion] = []
        for symbol_value in range(int(self.low[0]), int(self.high[0]) + 1):
            symbol = str(symbol_value)
            sub_low = self.low if symbol == self.low[0] else ks.min_extension(
                symbol, self.length, base=self.base
            )
            sub_high = self.high if symbol == self.high[0] else ks.max_extension(
                symbol, self.length, base=self.base
            )
            subregions.append(KautzRegion(low=sub_low, high=sub_high, base=self.base))
        return subregions

    def union_size(self, other: "KautzRegion") -> int:
        """Size of the union with another region of the same length (for tests)."""
        if self.length != other.length or self.base != other.base:
            raise ks.KautzStringError("regions must share base and length")
        members = set(self) | set(other)
        return len(members)

    def __repr__(self) -> str:
        return f"KautzRegion(low={self.low!r}, high={self.high!r}, base={self.base})"


# ``bench/layers.py:memo_counts`` reads ``naming.cache_hit_share`` from
# ``cache_info()`` of four names: these two and ``SingleAttributeNamer``'s
# ``_label_memo`` / ``_region_memo``.  No memo keyed by a query's own values
# is left on the naming or pruning path, so all four are this one cache,
# which nothing calls: the metric reads 0.0.  ROADMAP item 1 drops the
# metric, then these names.
_contains_prefix_memo = _split_memo = lru_cache(maxsize=None)(lambda: None)
