"""Wire-format value codec shared by every layer.

JSON cannot tell a tuple from a list, but the protocol objects of this
repository lean on tuples in places where identity matters after a round
trip: MIRA object keys are tuples of floats, ``QueryJob.ranges`` is a tuple
of ``(low, high)`` pairs, and ``RangeQueryResult.forwarding_steps`` holds
``(sender, receiver, hop)`` triples.  :func:`encode_value` /
:func:`decode_value` preserve them by tagging tuples as
``{"__tuple__": [...]}`` — recursively, so tuples nested inside lists,
dicts or other tuples survive too.

A **column** — a list of values that crosses a socket as one unit: the
``object_id`` / ``key`` / ``value`` lists of a reply's ``matches``
(:func:`repro.storage.base.objects_to_wire`) — has one spelling, chosen by
:func:`encode_column` from the data alone:

* a non-empty column whose every element has exact type ``float`` is
  ``{"f64": "<base64>"}`` — the elements as little-endian IEEE-754
  doubles, eight bytes each.  JSON would print every double as its
  shortest round-trip decimal and parse it back (0.45 µs + 0.20 µs apiece,
  a third of what a 490-match query cost end to end); packed, the same
  double costs 0.07 µs + 0.05 µs and is bit-exact, NaN payloads and
  ``-0.0`` included;
* every other column — strings, an ``int`` or ``bool`` anywhere (``3`` must
  not come back ``3.0``), ``None``, tuples, the empty column — is a plain
  list, scalars bare and tuples tagged, exactly as :func:`encode_value`
  spells a list.

:func:`decode_column` reads both and nothing else: a packed column that is
not valid base64 of a whole number of doubles, or that carries keys beside
``f64``, is a :class:`ValueError` naming the column.

The module sits below every other layer (it imports nothing from
``repro``), so ``fissione``, ``core``, ``engine`` and ``runtime`` can all
use the same codec without bending the dependency order.

>>> decode_value(encode_value((1.5, ("a", 2)))) == (1.5, ("a", 2))
True
>>> import json
>>> decode_value(json.loads(json.dumps(encode_value({"k": (1, 2)}))))
{'k': (1, 2)}
>>> encode_column([1.0, -2.5])
{'f64': 'AAAAAAAA8D8AAAAAAAAEwA=='}
>>> encode_column([1.0, 2]), decode_column(encode_column([1.0, -2.5]))
([1.0, 2], [1.0, -2.5])
"""

from __future__ import annotations

import sys
from array import array
from base64 import b64decode, b64encode
from typing import Any, List, Sequence

#: dict key reserved for the tuple tag; plain dicts must not use it
TUPLE_TAG = "__tuple__"

#: dict key of a packed column of doubles; it stands alone in its dict
F64_TAG = "f64"

#: exact types both codec directions pass through untouched
SCALAR_TYPES = frozenset((float, int, str, bool, type(None)))


def encode_value(value: Any) -> Any:
    """Rewrite ``value`` into a JSON-compatible shape, tagging tuples.

    Scalars pass through, lists and dict values are encoded recursively,
    and tuples become ``{TUPLE_TAG: [...]}``.  A plain dict that already
    contains :data:`TUPLE_TAG` as a key is rejected — it would decode as a
    tuple and silently corrupt the round trip.
    """
    scalars = SCALAR_TYPES
    if type(value) in scalars:
        return value
    if isinstance(value, (tuple, list)):
        items = [item if type(item) in scalars else encode_value(item) for item in value]
        return {TUPLE_TAG: items} if isinstance(value, tuple) else items
    if isinstance(value, dict):
        if TUPLE_TAG in value:
            raise ValueError(f"dict key {TUPLE_TAG!r} is reserved by the wire codec")
        return {k: v if type(v) in scalars else encode_value(v) for k, v in value.items()}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (after a JSON round trip).

    A list of scalars only is returned as it is (one type check over the
    list, no per-element walk); any other list comes back as a new one."""
    scalars = SCALAR_TYPES
    if type(value) in scalars:
        return value
    if isinstance(value, list):
        if set(map(type, value)) <= scalars:
            return value
        return [item if type(item) in scalars else decode_value(item) for item in value]
    if isinstance(value, dict):
        if TUPLE_TAG in value:
            return tuple(decode_value(value[TUPLE_TAG]))
        return {k: v if type(v) in scalars else decode_value(v) for k, v in value.items()}
    return value


def encode_column(values: Sequence[Any]) -> Any:
    """The wire form of a list of values: all-``float`` columns packed as
    doubles, anything else the list :func:`encode_value` would give."""
    kinds = set(map(type, values))
    if kinds == {float}:
        packed = array("d", values)
        if sys.byteorder == "big":
            packed.byteswap()
        return {F64_TAG: b64encode(packed).decode("ascii")}
    return list(values) if kinds <= SCALAR_TYPES else encode_value(list(values))


def decode_column(wire: Any, name: str = "column") -> List[Any]:
    """Inverse of :func:`encode_column` (after a JSON round trip).

    A packed column is checked strictly — the bytes come from outside the
    program — and every complaint is a :class:`ValueError` naming ``name``.
    """
    if isinstance(wire, list):
        return decode_value(wire)
    if not isinstance(wire, dict) or F64_TAG not in wire:
        raise ValueError(f"column {name!r} is neither a list nor a packed {F64_TAG} column")
    if len(wire) != 1:
        extra = sorted(key for key in wire if key != F64_TAG)
        raise ValueError(f"column {name!r} has keys beside {F64_TAG!r}: {extra}")
    text = wire[F64_TAG]
    if not isinstance(text, str):
        raise ValueError(f"column {name!r}: {F64_TAG} is {type(text).__name__}, not a string")
    try:
        raw = b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error is one
        raise ValueError(f"column {name!r}: {F64_TAG} is not valid base64 ({exc})") from exc
    if len(raw) % 8:
        raise ValueError(f"column {name!r}: {len(raw)} bytes is not a whole number of doubles")
    packed = array("d", raw)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tolist()
