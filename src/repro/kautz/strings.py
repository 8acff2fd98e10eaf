"""Low-level Kautz string helpers.

A *Kautz string* of base ``d`` is a non-empty string over the alphabet
``{0, 1, ..., d}`` (``d + 1`` symbols) in which neighbouring symbols differ.
Strings are represented as plain Python ``str`` objects of digit characters,
so lexicographic comparison of equal-length strings is simply ``<``/``<=`` on
``str`` (the paper's relation denoted by the "no more than" symbol).

The functions here implement the pieces Armada's naming and routing need:

* validation (:func:`validate_kautz_string`, :func:`is_kautz_string`),
* prefix handling (:func:`is_prefix`, :func:`common_prefix`),
* lexicographically smallest / largest extensions of a prefix to a fixed
  length (:func:`min_extension`, :func:`max_extension`) -- these define the
  interval of length-``k`` Kautz strings owned by a prefix,
* counting and rank/unrank within ``KautzSpace(d, k)``.

Functions whose inputs repeat across queries -- the alphabet's symbol
tables, prefix extensions -- are memoised; validation is cheap enough
without a memo.  Values
that belong to one query (its endpoints, their common prefix) are computed
directly: their keys never repeat, so a memo would only add a miss and an
eviction per call.  All cached values are immutable (``str`` / ``tuple``),
so sharing them is safe.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Dict, List, Optional, Tuple


class KautzStringError(ValueError):
    """Raised for malformed Kautz strings or invalid parameters."""


def intern_label(label: str) -> str:
    """Canonicalise a Kautz label to one shared ``str`` object.

    Labels are produced independently at many sites (naming descents,
    rank/unrank, prefix extensions) and then used as dict keys and set
    members on every routing hop.  Interning makes equal labels *identical*
    (``is``-comparable), so their hashes are computed once process-wide and
    equality checks short-circuit on pointer comparison.

    The shim stays on ``str`` rather than migrating labels to ``bytes``:
    profiling showed the hot cost is allocation and hashing churn, which
    interning removes, while a ``bytes`` representation would force an
    encode/decode at every JSON boundary (protocol frames, BENCH artifacts,
    traces).
    """
    return sys.intern(label)


@lru_cache(maxsize=16)
def alphabet(base: int) -> str:
    """The ``base + 1`` symbols usable in a base-``base`` Kautz string."""
    if base < 1:
        raise KautzStringError(f"base must be >= 1, got {base}")
    if base > 8:
        raise KautzStringError("bases above 8 are not supported by the digit representation")
    return "".join(str(symbol) for symbol in range(base + 1))


def _validate_impl(value: str, base: int, allow_empty: bool) -> None:
    symbols = alphabet(base)
    if not value:
        if allow_empty:
            return
        raise KautzStringError("Kautz string must not be empty")
    for position, char in enumerate(value):
        if char not in symbols:
            raise KautzStringError(
                f"symbol {char!r} at position {position} is not in the base-{base} alphabet"
            )
        if position > 0 and value[position - 1] == char:
            raise KautzStringError(
                f"adjacent symbols at positions {position - 1} and {position} are equal in {value!r}"
            )


def validate_kautz_string(value: str, base: int = 2, allow_empty: bool = False) -> str:
    """Validate ``value`` as a Kautz string (or prefix) and return it.

    Raises :class:`KautzStringError` if the string uses symbols outside the
    alphabet or repeats a symbol in adjacent positions.  The check is two
    C-level scans — stripping the alphabet must leave nothing, and no
    doubled symbol may occur — so it needs no memo; the per-symbol walk is
    only entered to build the error message for invalid inputs.
    """
    symbols = alphabet(base)
    if value:
        if not value.strip(symbols):
            for symbol in symbols:
                if symbol + symbol in value:
                    break
            else:
                return value
    elif allow_empty:
        return value
    _validate_impl(value, base, allow_empty)
    return value  # pragma: no cover - unreachable: invalid inputs raise above


def is_kautz_string(value: str, base: int = 2, allow_empty: bool = False) -> bool:
    """True when ``value`` is a well-formed Kautz string of the given base."""
    try:
        validate_kautz_string(value, base=base, allow_empty=allow_empty)
    except KautzStringError:
        return False
    return True


def is_prefix(prefix: str, value: str) -> bool:
    """True when ``prefix`` is a (possibly empty, possibly equal) prefix of ``value``."""
    return value.startswith(prefix)


def common_prefix(first: str, second: str) -> str:
    """Longest common prefix of two strings."""
    limit = min(len(first), len(second))
    for index in range(limit):
        if first[index] != second[index]:
            return first[:index]
    return first[:limit]


@lru_cache(maxsize=256)
def _allowed_symbols_memo(previous: Optional[str], base: int) -> Tuple[str, ...]:
    """Shared immutable symbol table behind :func:`allowed_symbols`."""
    symbols = alphabet(base)
    if previous is None or previous == "":
        return tuple(symbols)
    if previous not in symbols:
        raise KautzStringError(f"previous symbol {previous!r} not in base-{base} alphabet")
    return tuple(symbol for symbol in symbols if symbol != previous)


def allowed_symbols(previous: Optional[str], base: int = 2) -> List[str]:
    """Symbols usable after ``previous`` (all symbols when ``previous`` is None).

    The returned list is sorted increasingly, matching the left-to-right edge
    labelling of the partition tree and the forward routing tree.
    """
    return list(_allowed_symbols_memo(previous, base))


def symbol_table(base: int = 2) -> Dict[Optional[str], Tuple[str, ...]]:
    """``{previous symbol or None: allowed symbols}`` for the whole alphabet.

    A naming descent builds this once per tree and then steps level by level
    with one dict lookup, instead of one :func:`allowed_symbols_tuple` call.
    """
    return {
        previous: _allowed_symbols_memo(previous, base) for previous in (None, *alphabet(base))
    }


def allowed_symbols_tuple(previous: Optional[str], base: int = 2) -> Tuple[str, ...]:
    """Like :func:`allowed_symbols` but returning the shared memoised tuple.

    Hot paths (naming descents, rank/unrank) use this to avoid materialising
    a fresh list per level; callers must not mutate the result.
    """
    return _allowed_symbols_memo(previous, base)


@lru_cache(maxsize=1 << 17)
def min_extension(prefix: str, length: int, base: int = 2) -> str:
    """Lexicographically smallest length-``length`` Kautz string with ``prefix``.

    Memoised: the prefixes are symbols and PeerIDs, which repeat.

    >>> min_extension("02", 4)
    '0201'
    >>> min_extension("", 3)
    '010'
    """
    validate_kautz_string(prefix, base=base, allow_empty=True)
    if len(prefix) > length:
        raise KautzStringError(f"prefix {prefix!r} longer than requested length {length}")
    result = list(prefix)
    while len(result) < length:
        previous = result[-1] if result else None
        result.append(_allowed_symbols_memo(previous, base)[0])
    return intern_label("".join(result))


@lru_cache(maxsize=1 << 17)
def max_extension(prefix: str, length: int, base: int = 2) -> str:
    """Lexicographically largest length-``length`` Kautz string with ``prefix``.

    Memoised, like :func:`min_extension`.

    >>> max_extension("02", 4)
    '0212'
    >>> max_extension("", 3)
    '212'
    """
    validate_kautz_string(prefix, base=base, allow_empty=True)
    if len(prefix) > length:
        raise KautzStringError(f"prefix {prefix!r} longer than requested length {length}")
    result = list(prefix)
    while len(result) < length:
        previous = result[-1] if result else None
        result.append(_allowed_symbols_memo(previous, base)[-1])
    return intern_label("".join(result))


def space_size(base: int, length: int) -> int:
    """Number of Kautz strings of the given base and length.

    ``|KautzSpace(d, k)| = (d + 1) * d**(k - 1)``.
    """
    if length < 1:
        raise KautzStringError(f"length must be >= 1, got {length}")
    alphabet(base)
    return (base + 1) * base ** (length - 1)


def strings_with_prefix_count(prefix: str, length: int, base: int = 2) -> int:
    """Number of length-``length`` Kautz strings that extend ``prefix``."""
    validate_kautz_string(prefix, base=base, allow_empty=True)
    if len(prefix) > length:
        return 0
    if not prefix:
        return space_size(base, length)
    return base ** (length - len(prefix))


def rank(value: str, base: int = 2) -> int:
    """Zero-based index of ``value`` within ``KautzSpace(base, len(value))``.

    Strings are ordered lexicographically; ranks are dense, i.e.
    ``unrank(rank(s)) == s`` and consecutive ranks are consecutive strings.
    """
    validate_kautz_string(value, base=base)
    length = len(value)
    index = 0
    previous: Optional[str] = None
    for position, char in enumerate(value):
        choices = _allowed_symbols_memo(previous, base)
        char_index = choices.index(char)
        remaining = length - position - 1
        index += char_index * (base ** remaining)
        previous = char
    return index


def unrank(index: int, length: int, base: int = 2) -> str:
    """Inverse of :func:`rank`: the ``index``-th Kautz string of the given length."""
    total = space_size(base, length)
    if not 0 <= index < total:
        raise KautzStringError(f"index {index} out of range for KautzSpace({base},{length})")
    result: List[str] = []
    previous: Optional[str] = None
    remaining_index = index
    for position in range(length):
        choices = _allowed_symbols_memo(previous, base)
        block = base ** (length - position - 1)
        choice_index = remaining_index // block
        remaining_index -= choice_index * block
        char = choices[choice_index]
        result.append(char)
        previous = char
    return intern_label("".join(result))


def successor(value: str, base: int = 2) -> Optional[str]:
    """Next Kautz string of the same length, or ``None`` at the end of the space."""
    index = rank(value, base=base)
    if index + 1 >= space_size(base, len(value)):
        return None
    return unrank(index + 1, len(value), base=base)


def predecessor(value: str, base: int = 2) -> Optional[str]:
    """Previous Kautz string of the same length, or ``None`` at the start."""
    index = rank(value, base=base)
    if index == 0:
        return None
    return unrank(index - 1, len(value), base=base)


def kautz_strings_with_prefix(prefix: str, length: int, base: int = 2) -> List[str]:
    """All length-``length`` Kautz strings extending ``prefix`` (lexicographic order).

    Intended for tests and small examples; the count grows as
    ``base ** (length - len(prefix))``.
    """
    count = strings_with_prefix_count(prefix, length, base=base)
    if count == 0:
        return []
    first = min_extension(prefix, length, base=base)
    start = rank(first, base=base)
    return [unrank(start + offset, length, base=base) for offset in range(count)]


def splice(source: str, target: str, base: int = 2) -> str:
    """Concatenate ``source`` and ``target`` merging their maximal overlap.

    The overlap is the longest suffix of ``source`` that is also a prefix of
    ``target``.  The result is always a valid Kautz string because both inputs
    are and, when the overlap is empty, the junction symbols must differ
    (otherwise a length-1 overlap would exist).

    >>> splice("212", "120", base=2)
    '2120'
    >>> splice("01", "21", base=2)
    '0121'
    """
    validate_kautz_string(source, base=base)
    validate_kautz_string(target, base=base)
    max_overlap = min(len(source), len(target))
    for overlap in range(max_overlap, 0, -1):
        if source[-overlap:] == target[:overlap]:
            return source + target[overlap:]
    return source + target
