"""Property test: the frame codec built once is the stdlib's JSON, byte for byte.

:func:`~repro.runtime.protocol.encode_frame` runs one C encoder built at
import, and :func:`~repro.runtime.protocol.decode_frame` one C scanner, in
place of ``json.JSONEncoder(separators=(",", ":")).encode`` and
``json.loads``.  What crosses a socket must not change by a byte: every
payload encodes to the stdlib's text behind the length prefix, and every
body decodes to what ``json.loads`` gives — or both refuse it, the frame
codec with a :class:`FrameBodyError` carrying ``json.loads``'s own message.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.protocol import FrameBodyError, decode_frame, encode_frame
from repro.wire import TUPLE_TAG

REFERENCE = json.JSONEncoder(separators=(",", ":")).encode

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    FLOATS,
    st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
    st.sampled_from(["é", "Kautz ∞", "\u2028", "\x00", "\"\\", "😀"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner).map(lambda pair: {TUPLE_TAG: list(pair)}),  # a tagged tuple
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=30,
)
PAYLOADS = st.dictionaries(st.text(max_size=8), VALUES, max_size=6)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
@example({"type": "reply", "rid": 1, "payload": {"ok": True, "x": [math.nan, -0.0, math.inf]}})
def test_encode_frame_is_the_stdlib_encoder_behind_a_length_prefix(payload):
    text = REFERENCE(payload).encode("utf-8")
    assert encode_frame(payload) == len(text).to_bytes(4, "big") + text


def decoded_or_refused(decode, body):
    """``("ok", value)`` or ``("refused", message)``; anything else raises."""
    try:
        return "ok", decode(body)
    except FrameBodyError as exc:
        return "refused", str(exc)


def reference(body: bytes):
    """What ``decode_frame`` did before: ``json.loads`` of the UTF-8 text."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise FrameBodyError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameBodyError("frame payload must be a JSON object")
    return payload


def same(left, right) -> bool:
    """Equality that holds NaN equal to NaN (by the text both encode to)."""
    return REFERENCE(left) == REFERENCE(right)


BODIES = [
    b'{"a":1}',
    b' {"a":1}',
    b'{"a":1} ',
    b'\n\t{"a": [1, 2.5, "x"]}\r\n',
    b'{"a":1}{"b":2}',
    b'{"a":1} x',
    b'{"a":1',
    b'{"a":}',
    b"[1, 2]",
    b'"text"',
    b"3",
    b"NaN",
    b"-Infinity",
    b'{"n": NaN, "i": -Infinity}',
    b"",
    b"   ",
    b"\xff\xfe{",
    b'{"a":"\xc3"}',
    "\ufeff{}".encode("utf-8"),
    b'{"a":"\\ud800"}',
    b"null",
]


@pytest.mark.parametrize("body", BODIES)
def test_decode_frame_is_json_loads_or_both_refuse(body):
    mine, theirs = decoded_or_refused(decode_frame, body), decoded_or_refused(reference, body)
    assert mine[0] == theirs[0]
    assert mine[1] == theirs[1] if mine[0] == "refused" else same(mine[1], theirs[1])


@settings(max_examples=300, deadline=None)
@given(
    PAYLOADS,
    st.sampled_from(["", " ", "\n", " \t\r\n"]),
    st.sampled_from(["", " ", "\n\n", "x", "{}", " 1"]),
)
def test_decode_frame_reads_what_json_loads_reads(payload, lead, trail):
    body = (lead + json.dumps(payload) + trail).encode("utf-8")
    mine, theirs = decoded_or_refused(decode_frame, body), decoded_or_refused(reference, body)
    assert mine[0] == theirs[0]
    assert mine[1] == theirs[1] if mine[0] == "refused" else same(mine[1], theirs[1])


class TestFailedEncodes:
    """The encoder is shared, so a failed encode must leave nothing behind."""

    def test_a_cyclic_payload_raises_and_the_next_encode_works(self):
        payload = {"type": "reply", "items": []}
        payload["items"].append(payload)
        for _ in range(2):
            with pytest.raises(ValueError, match="Circular reference"):
                encode_frame(payload)
        payload["items"].clear()
        assert encode_frame(payload) == encode_frame({"type": "reply", "items": []})

    def test_an_unencodable_value_raises_the_stdlib_type_error(self):
        inner = {"nested": [object()]}
        with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
            encode_frame({"a": inner})
        # The dict and list that were open when it failed encode again.
        inner["nested"] = [1]
        assert encode_frame({"a": inner}) == encode_frame({"a": {"nested": [1]}})
