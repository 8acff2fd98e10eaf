"""Property tests: binary frame bodies are JSON-equivalent, bit for bit.

The binary codec (:mod:`repro.binframe`: WAL records, flight-recorder
dumps) promises *exactly* the JSON value space:
for every encodable value ``x``,

    ``decode_binary(encode_binary(x)) == json.loads(json.dumps(x))``

— tuples collapse to lists, unicode survives, arbitrary-precision ints
round-trip, dict insertion order is preserved.  If that identity ever
breaks, a frame recorded into a flight dump would replay as something the
wire never carried, so Hypothesis hammers it with structurally arbitrary values, with
every v2 frame shape (``request``/``reply``/``chunk``/``batch``), and
through the tuple-tagging :mod:`repro.wire` layer the chunk values ride.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binframe import decode_binary, encode_binary
from repro.runtime.protocol import decode_frame, encode_frame
from repro.wire import decode_value, encode_value

# -- strategies --------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: covers fixint, int64, and the bigint ext path
any_ints = st.one_of(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-(2**63) - 10, max_value=2**63 + 10),
    st.integers(min_value=-(2**200), max_value=2**200),
)
#: unicode, including astral-plane codepoints and strings beyond fixstr
texts = st.text(max_size=40)

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), any_ints, finite_floats, texts),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)

rids = st.integers(min_value=1, max_value=2**62)

request_frames = st.fixed_dictionaries(
    {
        "type": st.just("request"),
        "rid": rids,
        "request": st.fixed_dictionaries(
            {
                "op": st.sampled_from(["range", "mrange", "insert", "ping", "stats"]),
                "low": finite_floats,
                "high": finite_floats,
                "options": st.dictionaries(st.text(max_size=6), json_values, max_size=3),
            }
        ),
    }
)

reply_frames = st.fixed_dictionaries(
    {
        "type": st.just("reply"),
        "rid": rids,
        "payload": st.fixed_dictionaries(
            {
                "ok": st.booleans(),
                "result": json_values,
                "status": st.sampled_from(["ok", "partial", "deadline"]),
            }
        ),
    }
)

chunk_frames = st.fixed_dictionaries(
    {
        "type": st.just("chunk"),
        "rid": rids,
        "peer": st.text(alphabet="012", min_size=1, max_size=8),
        "hop": st.integers(min_value=0, max_value=64),
        "values": st.lists(json_values, max_size=4),
    }
)

batch_frames = st.fixed_dictionaries(
    {
        "type": st.just("batch"),
        "requests": st.lists(
            st.fixed_dictionaries({"rid": rids, "request": json_values}), max_size=4
        ),
    }
)

v2_frames = st.one_of(request_frames, reply_frames, chunk_frames, batch_frames)

#: values as the chunk path ships them: tuples allowed, tagged by wire.py
tuple_values = st.recursive(
    st.one_of(st.none(), st.booleans(), any_ints, finite_floats, texts),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(
            st.text(max_size=6).filter(lambda k: k != "__tuple__"), children, max_size=3
        ),
    ),
    max_leaves=10,
)


# -- the JSON-identity contract ----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_binary_round_trip_equals_a_json_round_trip(value):
    assert decode_binary(encode_binary(value)) == json.loads(json.dumps(value))


@settings(max_examples=200, deadline=None)
@given(v2_frames)
def test_every_v2_frame_type_is_encoding_agnostic(frame):
    """A frame read back from binary equals the same frame read from JSON."""
    via_binary = decode_binary(encode_binary(frame))
    via_json = decode_frame(encode_frame(frame)[4:])
    assert via_binary == via_json


@settings(max_examples=150, deadline=None)
@given(tuple_values)
def test_tuple_tagging_survives_the_binary_body(value):
    """Chunk values go through wire.py's tuple tagging before the frame
    codec; the tuples must come back as tuples over *both* encodings."""
    tagged = encode_value(value)
    assert decode_value(decode_binary(encode_binary(tagged))) == decode_value(
        json.loads(json.dumps(tagged))
    )


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_binary_bodies_are_self_identifying(value):
    """Every binary body opens with 0xC1; no JSON body can (it starts
    with ``{`` for frames) — the byte that makes per-frame sniffing safe."""
    assert encode_binary(value)[0] == 0xC1
