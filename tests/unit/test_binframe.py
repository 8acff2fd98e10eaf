"""Unit tests for the binary codec (:mod:`repro.binframe`).

The property suite (``tests/property/test_prop_binframe.py``) hammers the
JSON-identity contract with random structures; these tests pin the exact
wire bytes and the error edges — tag choices, the magic byte, truncation,
bigint ext payloads, and the deliberate rejections that keep a binary body
from ever decoding to something JSON would have spelled differently.
"""

from __future__ import annotations

import json

import pytest

from repro.binframe import (
    BINARY_MAGIC,
    BinaryCodecError,
    decode_binary,
    encode_binary,
)


def round_trip(value):
    return decode_binary(encode_binary(value))


class TestWireBytes:
    """Pin the msgpack-compatible tag layout so it can never drift."""

    def test_magic_byte_leads_every_body(self):
        assert encode_binary(None)[0] == BINARY_MAGIC == 0xC1

    def test_scalars(self):
        assert encode_binary(None) == b"\xc1\xc0"
        assert encode_binary(True) == b"\xc1\xc3"
        assert encode_binary(False) == b"\xc1\xc2"
        assert encode_binary(0) == b"\xc1\x00"
        assert encode_binary(127) == b"\xc1\x7f"
        assert encode_binary(-1) == b"\xc1\xff"
        assert encode_binary(-32) == b"\xc1\xe0"

    def test_int64_and_float64_tags(self):
        assert encode_binary(128)[1] == 0xD3  # past the fixint range
        assert encode_binary(-33)[1] == 0xD3
        assert len(encode_binary(128)) == 1 + 1 + 8
        assert encode_binary(1.5)[1] == 0xCB
        assert len(encode_binary(1.5)) == 1 + 1 + 8

    def test_fixstr_and_str32(self):
        assert encode_binary("hi") == b"\xc1\xa2hi"
        long = "x" * 32  # one past the fixstr limit
        body = encode_binary(long)
        assert body[1] == 0xDB
        assert int.from_bytes(body[2:6], "big") == 32

    def test_fixmap_fixarray_and_32bit_forms(self):
        assert encode_binary([]) == b"\xc1\x90"
        assert encode_binary({}) == b"\xc1\x80"
        assert encode_binary({"a": 1}) == b"\xc1\x81\xa1a\x01"
        assert encode_binary(list(range(16)))[1] == 0xDD  # array32
        big_map = {str(i): i for i in range(16)}
        assert encode_binary(big_map)[1] == 0xDF  # map32

    def test_utf8_length_counts_bytes_not_codepoints(self):
        body = encode_binary("é" * 20)  # 40 UTF-8 bytes > 31
        assert body[1] == 0xDB
        assert round_trip("é" * 20) == "é" * 20


class TestValues:
    def test_bigints_ride_the_ext_payload(self):
        for value in (2**63, -(2**63) - 1, 2**80, -(2**200), 10**50):
            body = encode_binary(value)
            assert body[1] == 0xC7
            assert round_trip(value) == value

    def test_int64_boundaries(self):
        for value in (2**63 - 1, -(2**63), 2**31, -(2**31) - 1):
            assert round_trip(value) == value

    def test_tuples_become_lists_like_json(self):
        assert round_trip((1, 2, (3,))) == [1, 2, [3]]

    def test_subclasses_encode_as_their_base(self):
        class MyStr(str):
            pass

        class MyInt(int):
            pass

        class MyFloat(float):
            pass

        value = {"s": MyStr("abc"), "i": MyInt(7), "f": MyFloat(1.5), "b": True}
        assert round_trip(value) == {"s": "abc", "i": 7, "f": 1.5, "b": True}

    def test_bool_never_leaks_as_int(self):
        # bool is an int subclass; the codec must keep True/False distinct
        # from 1/0, exactly as json.dumps does.
        assert round_trip([True, 1, False, 0]) == [True, 1, False, 0]

    def test_dict_order_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(round_trip(value)) == ["z", "a", "m"]

    def test_realistic_reply_frame_matches_json_round_trip(self):
        frame = {
            "type": "reply",
            "rid": 42,
            "payload": {
                "ok": True,
                "result": {
                    "matches": [[123.0, "obj-1"], [456.5, "obj-2"]],
                    "destinations": ["0121", "10212"],
                    "messages": 17,
                    "complete": True,
                },
            },
        }
        assert round_trip(frame) == json.loads(json.dumps(frame))


class TestRejections:
    def test_non_string_dict_keys_rejected_not_coerced(self):
        # json.dumps would silently coerce 1 -> "1"; a binary body must
        # never decode to something JSON spelled differently, so: reject.
        with pytest.raises(BinaryCodecError, match="string dict keys"):
            encode_binary({1: "a"})

    def test_unencodable_types_rejected(self):
        with pytest.raises(BinaryCodecError, match="not encodable"):
            encode_binary({"blob": b"raw-bytes"})
        with pytest.raises(BinaryCodecError, match="not encodable"):
            encode_binary(object())

    def test_absurd_bigint_rejected(self):
        with pytest.raises(BinaryCodecError, match="too large"):
            encode_binary(1 << (8 * 0x1000))


class TestMalformedBodies:
    def test_missing_magic(self):
        with pytest.raises(BinaryCodecError, match="magic"):
            decode_binary(b"\x00")
        with pytest.raises(BinaryCodecError, match="magic"):
            decode_binary(b"")
        with pytest.raises(BinaryCodecError, match="magic"):
            decode_binary(b'{"type": "reply"}')  # a JSON body

    def test_truncated_bodies(self):
        whole = encode_binary({"key": [1.5, "value", 2**70]})
        for cut in range(2, len(whole)):
            with pytest.raises(BinaryCodecError):
                decode_binary(whole[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(BinaryCodecError, match="trailing garbage"):
            decode_binary(encode_binary({"a": 1}) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(BinaryCodecError, match="unknown binary type tag"):
            decode_binary(b"\xc1\xc5")  # 0xC5 (msgpack bin16) unassigned here

    def test_unknown_ext_type_rejected(self):
        with pytest.raises(BinaryCodecError, match="unknown ext type"):
            decode_binary(b"\xc1\xc7\x02\x7f\x00\x01")

    def test_non_string_map_key_on_decode_rejected(self):
        # fixmap of one entry whose key is the int 5
        with pytest.raises(BinaryCodecError, match="key must be a string"):
            decode_binary(b"\xc1\x81\x05\x05")
