"""Wire-format value codec shared by every layer.

JSON cannot tell a tuple from a list, but the protocol objects of this
repository lean on tuples in places where identity matters after a round
trip: MIRA object keys are tuples of floats, ``QueryJob.ranges`` is a tuple
of ``(low, high)`` pairs, and ``RangeQueryResult.forwarding_steps`` holds
``(sender, receiver, hop)`` triples.  :func:`encode_value` /
:func:`decode_value` preserve them by tagging tuples as
``{"__tuple__": [...]}`` — recursively, so tuples nested inside lists,
dicts or other tuples survive too.

Lists of stored objects (a reply's ``matches``) cross the wire as
**columns**, one list per field (:func:`repro.storage.base.objects_to_wire`):
a reply grows with the range, and a dict per match cost two codec calls and
three repeated key strings each.  Both functions below test for scalars by
exact type first, so the common field costs no recursive call.

The module sits below every other layer (it imports nothing from
``repro``), so ``fissione``, ``core``, ``engine`` and ``runtime`` can all
use the same codec without bending the dependency order.

>>> decode_value(encode_value((1.5, ("a", 2)))) == (1.5, ("a", 2))
True
>>> import json
>>> decode_value(json.loads(json.dumps(encode_value({"k": (1, 2)}))))
{'k': (1, 2)}
"""

from __future__ import annotations

from typing import Any

#: dict key reserved for the tuple tag; plain dicts must not use it
TUPLE_TAG = "__tuple__"

#: exact types both codec directions pass through untouched; callers on a
#: per-object path test ``type(x) in SCALAR_TYPES`` inline to skip the call
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
    """Inverse of :func:`encode_value` (after a JSON round trip)."""
    scalars = SCALAR_TYPES
    if type(value) in scalars:
        return value
    if isinstance(value, list):
        return [item if type(item) in scalars else decode_value(item) for item in value]
    if isinstance(value, dict):
        if TUPLE_TAG in value:
            return tuple(decode_value(value[TUPLE_TAG]))
        return {k: v if type(v) in scalars else decode_value(v) for k, v in value.items()}
    return value
