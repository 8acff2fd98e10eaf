"""The Kautz namespace ``KautzSpace(d, k)``.

A thin object wrapper over the functions in :mod:`repro.kautz.strings` that
fixes a base and a length, giving convenient enumeration, sampling, and
rank/unrank for that namespace.  FISSIONE uses ``KautzSpace(2, 100)`` as its
object identifier space; the partition tree used by Armada's naming maps the
attribute-value interval onto a (much shorter) ``KautzSpace(2, k)``.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.kautz import strings as ks


class KautzSpace:
    """All Kautz strings of a fixed base and length, in lexicographic order."""

    def __init__(self, base: int, length: int) -> None:
        ks.alphabet(base)
        if length < 1:
            raise ks.KautzStringError(f"length must be >= 1, got {length}")
        self._base = base
        self._length = length

    @property
    def base(self) -> int:
        """Kautz base ``d`` (alphabet has ``d + 1`` symbols)."""
        return self._base

    @property
    def length(self) -> int:
        """Length ``k`` of every string in the namespace."""
        return self._length

    @property
    def size(self) -> int:
        """Number of strings: ``(d + 1) * d**(k - 1)``."""
        return ks.space_size(self._base, self._length)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, str) or len(value) != self._length:
            return False
        return ks.is_kautz_string(value, base=self._base)

    def __iter__(self) -> Iterator[str]:
        for index in range(self.size):
            yield ks.unrank(index, self._length, base=self._base)

    def first(self) -> str:
        """Lexicographically smallest string in the namespace."""
        return ks.min_extension("", self._length, base=self._base)

    def last(self) -> str:
        """Lexicographically largest string in the namespace."""
        return ks.max_extension("", self._length, base=self._base)

    def rank(self, value: str) -> int:
        """Zero-based lexicographic index of ``value``."""
        if len(value) != self._length:
            raise ks.KautzStringError(
                f"expected a length-{self._length} string, got {value!r}"
            )
        return ks.rank(value, base=self._base)

    def unrank(self, index: int) -> str:
        """The ``index``-th string of the namespace."""
        return ks.unrank(index, self._length, base=self._base)

    def sample(self, rng, count: int = 1) -> List[str]:
        """``count`` strings drawn uniformly at random (with replacement)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.unrank(rng.randint(0, self.size - 1)) for _ in range(count)]

    def __repr__(self) -> str:
        return f"KautzSpace(base={self._base}, length={self._length}, size={self.size})"
