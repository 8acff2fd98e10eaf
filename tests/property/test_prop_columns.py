"""Property + golden tests: a column crosses the wire type- and bit-exactly.

:func:`repro.wire.encode_column` packs a column whose every element has
exact type ``float`` as little-endian IEEE-754 doubles and leaves every
other column a plain list, so the properties here are about *exactness*
(``==`` cannot tell ``3`` from ``3.0``, ``True`` from ``1``, ``0.0`` from
``-0.0`` or one NaN from another — :func:`exact` can) and about the
selection rule (one ``int`` anywhere keeps the whole column unpacked).
"""

from __future__ import annotations

import json
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import wire
from repro.core.pira import RangeQueryResult
from repro.fissione.peer import StoredObject
from repro.storage import base
from repro.wire import decode_column, encode_column

any_floats = st.floats(width=64)  # NaNs (any payload), infinities, subnormals, -0.0
json_safe_floats = st.floats(width=64, allow_nan=False)  # JSON text has one NaN
big_ints = st.one_of(st.integers(), st.integers(min_value=2**53, max_value=2**80))
scalars = st.one_of(json_safe_floats, big_ints, st.booleans(), st.none(), st.text(max_size=8))
elements = st.one_of(
    scalars,
    st.lists(json_safe_floats, min_size=1, max_size=3).map(tuple),
    st.tuples(scalars, st.tuples(scalars, scalars)),
)


#: a quiet NaN with a non-zero payload, which JSON text could not carry
(PAYLOAD_NAN,) = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")


def exact(value):
    """``value`` with every float replaced by its bytes and every node
    tagged with its exact type — equal only if type- and bit-equal."""
    if type(value) is float:
        return (float, struct.pack("<d", value))
    if type(value) in (tuple, list):
        return (type(value), [exact(item) for item in value])
    return (type(value), value)


def trip(column):
    return decode_column(json.loads(json.dumps(encode_column(column))))


@given(column=st.lists(any_floats, min_size=1, max_size=40))
@example(column=[0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, float("inf"), -float("inf")])
@example(column=[float("nan"), -float("nan"), PAYLOAD_NAN])
def test_an_all_float_column_is_packed_and_bit_exact(column):
    encoded = encode_column(column)
    assert set(encoded) == {"f64"} and len(encoded["f64"]) == 4 * ((8 * len(column) + 2) // 3)
    assert exact(trip(column)) == exact(column)


@given(column=st.lists(elements, max_size=12))
@example(column=[3, 1.0])
@example(column=[1.0, True])
@example(column=[2**53 + 1, -(2**64)])
@example(column=[(1.0, 2.0), (3.0, (4, "x"))])
def test_any_column_round_trips_type_exactly(column):
    assert exact(trip(column)) == exact(column)


@given(
    floats=st.lists(json_safe_floats, max_size=8),
    intruder=st.one_of(big_ints, st.booleans(), st.none(), st.text(max_size=4)),
    data=st.data(),
)
def test_one_non_float_keeps_the_whole_column_a_list(floats, intruder, data):
    """An integer key must come back ``3``, not ``3.0``; ``True`` is not a float."""
    column = list(floats)
    column.insert(data.draw(st.integers(0, len(floats))), intruder)
    encoded = encode_column(column)
    assert type(encoded) is list and exact(encoded) == exact(column)


def test_the_empty_column_is_an_empty_list():
    assert encode_column([]) == [] and decode_column([]) == []
    assert decode_column({"f64": ""}) == []  # never written, harmless to read


def test_a_plain_list_of_floats_is_simply_an_unpacked_column():
    """What a peer that does not pack would send: one decoder reads it."""
    assert exact(decode_column([1.0, -2.5])) == exact([1.0, -2.5])


class TestGoldenVector:
    """The bytes are little-endian on any host, not the host's order."""

    COLUMN = [1.0, -2.5]
    PACKED = {"f64": "AAAAAAAA8D8AAAAAAAAEwA=="}  # 00..f03f 00..04c0

    def test_spelling(self):
        assert encode_column(self.COLUMN) == self.PACKED
        assert exact(decode_column(self.PACKED)) == exact(self.COLUMN)

    def test_a_big_endian_host_byteswaps(self, monkeypatch):
        """With the host declared big-endian (on a little-endian box the
        array is then swapped to big-endian bytes) the two directions must
        still invert each other, and the bytes must differ from native."""
        other = "little" if wire.sys.byteorder == "big" else "big"
        monkeypatch.setattr(wire.sys, "byteorder", other)
        swapped = encode_column(self.COLUMN)
        assert swapped == {"f64": "P/AAAAAAAADABAAAAAAAAA=="}  # 3ff0..00 c004..00
        assert exact(decode_column(swapped)) == exact(self.COLUMN)


@pytest.mark.parametrize(
    "column, complaint",
    [
        ({"f64": "AAAA AAAA"}, "not valid base64"),
        ({"f64": "AAAAAAAAAA=="}, "7 bytes is not a whole number of doubles"),
        ({"f64": 7}, "f64 is int, not a string"),
        ({"f64": "", "dtype": "f32"}, r"keys beside 'f64': \['dtype'\]"),
        ({"__tuple__": [1.0]}, "neither a list nor a packed f64 column"),
        ("AAAAAAAA8D8=", "neither a list nor a packed f64 column"),
    ],
)
def test_a_malformed_column_is_a_value_error_naming_it(column, complaint):
    with pytest.raises(ValueError, match=f"column 'key'.*{complaint}"):
        decode_column(column, "key")


float_objects = st.builds(
    StoredObject,
    object_id=st.text(alphabet="012", min_size=1, max_size=16),
    key=json_safe_floats,
    value=st.one_of(json_safe_floats, st.none(), st.text(max_size=4)),
)


@settings(max_examples=50)
@given(objects=st.lists(float_objects, max_size=8))
def test_a_result_round_trips_before_any_object_is_built(objects):
    """``from_wire`` adopts the columns: equality, the match count, the keys
    and re-encoding are all answered without one ``StoredObject``; the
    objects a caller then iterates are the same ones, built once."""
    result = RangeQueryResult(origin="010", query_id=1)
    result.matches.extend(objects)
    with mock.patch.object(base, "StoredObject", side_effect=AssertionError("object built")):
        rebuilt = RangeQueryResult.from_wire(json.loads(json.dumps(result.to_wire())))
        assert rebuilt == result and result == rebuilt
        assert len(rebuilt.matches) == len(objects)
        assert exact(rebuilt.matching_values()) == exact([stored.key for stored in objects])
        assert rebuilt.to_wire() == result.to_wire()
    assert list(rebuilt.matches) == objects
    assert exact([(s.object_id, s.key, s.value) for s in rebuilt.matches]) == exact(
        [(s.object_id, s.key, s.value) for s in objects]
    )
    assert all(a is b for a, b in zip(rebuilt.matches, rebuilt.matches))  # built once
    assert rebuilt == result and rebuilt.to_wire() == result.to_wire()
