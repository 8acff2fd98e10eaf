"""Kautz-string substrate.

FISSIONE names peers and objects with *Kautz strings*: strings over the
alphabet ``{0, 1, ..., d}`` in which neighbouring symbols differ.  Armada's
naming algorithms and its range-query routing reason about lexicographic
order, prefixes and contiguous *Kautz regions* of such strings.  This package
provides:

* :mod:`repro.kautz.strings` -- validation, ordering, prefix/extension
  helpers, rank/unrank within ``KautzSpace(d, k)``.
* :mod:`repro.kautz.space` -- the set of all Kautz strings of a given base
  and length (enumeration, sizes, random sampling).
* :mod:`repro.kautz.region` -- contiguous lexicographic regions
  ``<low, high>`` of fixed-length Kautz strings (Definition 1 in the paper).
"""

from repro.kautz.region import KautzRegion
from repro.kautz.space import KautzSpace
from repro.kautz.strings import (
    KautzStringError,
    common_prefix,
    is_kautz_string,
    is_prefix,
    kautz_strings_with_prefix,
    max_extension,
    min_extension,
    rank,
    space_size,
    unrank,
    validate_kautz_string,
)

__all__ = [
    "KautzRegion",
    "KautzSpace",
    "KautzStringError",
    "common_prefix",
    "is_kautz_string",
    "is_prefix",
    "kautz_strings_with_prefix",
    "max_extension",
    "min_extension",
    "rank",
    "space_size",
    "unrank",
    "validate_kautz_string",
]
