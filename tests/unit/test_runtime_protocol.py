"""Unit tests for the runtime wire protocol (framing + message mapping)."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.runtime.protocol import (
    MAX_FRAME_BYTES,
    FrameBodyError,
    ProtocolError,
    decode_frame,
    encode_frame,
    message_to_wire,
    read_frame,
    wire_to_message,
)
from repro.sim.network import Message
from repro.wire import decode_value, encode_value


class TestFraming:
    def test_round_trip(self):
        payload = {"type": "msg", "kind": "pira", "meta": {"level": 2}}
        frame = encode_frame(payload)
        assert frame[:4] == (len(frame) - 4).to_bytes(4, "big")
        assert decode_frame(frame[4:]) == payload

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(json.dumps([1, 2, 3]).encode())

    @pytest.mark.parametrize(
        "body",
        [b"abc", b"\xff\xfe{", b"[1]", b"\xc1\x00", b""],
        ids=["not-json", "not-utf8", "not-an-object", "binframe", "empty"],
    )
    def test_undecodable_body_is_recoverable(self, body):
        with pytest.raises(FrameBodyError):
            decode_frame(body)

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_read_frame_across_stream(self):
        async def scenario():
            reader = asyncio.StreamReader()
            first = {"type": "msg", "kind": "pira"}
            second = {"type": "reply", "rid": 7, "ok": True}
            reader.feed_data(encode_frame(first) + encode_frame(second))
            reader.feed_eof()
            assert await read_frame(reader) == first
            assert await read_frame(reader) == second
            assert await read_frame(reader) is None  # clean EOF

        asyncio.run(scenario())

    def test_read_frame_truncated_returns_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"a": 1})[:-2])
            reader.feed_eof()
            assert await read_frame(reader) is None

        asyncio.run(scenario())

    def test_read_frame_refuses_giant_length(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError) as caught:
                await read_frame(reader)
            assert not isinstance(caught.value, FrameBodyError)  # not recoverable

        asyncio.run(scenario())


class TestReplyFrameSize:
    """Machine-independent pin on what the column form buys: bytes."""

    def test_column_reply_is_at_most_three_quarters_of_the_row_form(self):
        from repro.core.pira import RangeQueryResult
        from repro.fissione.peer import StoredObject

        result = RangeQueryResult(origin="0120", query_id=77, messages=18)
        result.destinations = {f"01201{i}": 3 + i % 2 for i in range(9)}
        result.forwarding_steps = [("0120", f"1201{i}", i % 4) for i in range(18)]
        for i in range(500):
            key = 250.0 + i * 0.4971
            # 32-symbol ObjectIDs, the clusters' default object_id_length
            object_id = f"0121020121012010210120{i % 3}{i:09d}"
            result.matches.append(StoredObject(object_id, key, key))

        def reply(wire):
            payload = {"ok": True, "type": "result", "status": "ok", "latency": 0.0042}
            return encode_frame({"type": "reply", "rid": 9, "payload": {**payload, "result": wire}})

        columns = result.to_wire()
        # the form this one replaced, spelled out: one dict per match
        rows = dict(columns)
        rows["matches"] = [
            {"object_id": stored.object_id, "key": stored.key, "value": stored.value}
            for stored in result.matches
        ]
        assert len(reply(columns)) <= 0.75 * len(reply(rows))
        decoded = decode_frame(reply(columns)[4:])["payload"]["result"]
        assert RangeQueryResult.from_wire(decoded) == result


class TestMessageMapping:
    def make_message(self):
        return Message(
            sender="010",
            receiver="102",
            kind="pira",
            hop=3,
            query_id=42,
            level=2,
            branch=1,
            send=17,
            handler=lambda *a: None,  # local-only, must not cross
            on_drop=lambda *a: None,
        )

    def test_round_trip_preserves_wire_fields(self):
        message = self.make_message()
        wire = json.loads(json.dumps(message_to_wire(message)))
        rebuilt = wire_to_message(wire)
        assert rebuilt.sender == message.sender
        assert rebuilt.receiver == message.receiver
        assert rebuilt.kind == message.kind
        assert rebuilt.hop == message.hop
        assert rebuilt.query_id == message.query_id
        assert rebuilt.level == 2
        assert rebuilt.branch == 1
        assert rebuilt.send == 17

    def test_local_callables_do_not_cross(self):
        wire = message_to_wire(self.make_message())
        assert "handler" not in wire["meta"]
        assert "on_drop" not in wire["meta"]
        json.dumps(wire)  # the whole frame must be JSON-compatible

    def test_detour_latency_crosses(self):
        message = self.make_message()
        message.latency = 4.0
        assert wire_to_message(message_to_wire(message)).latency == 4.0


class TestValueCodec:
    def test_nested_tuples_survive_json(self):
        value = {"key": (1.5, ("a", 2), [3, (4,)])}
        round_tripped = decode_value(json.loads(json.dumps(encode_value(value))))
        assert round_tripped == value
        assert isinstance(round_tripped["key"], tuple)

    def test_reserved_key_rejected(self):
        with pytest.raises(ValueError):
            encode_value({"__tuple__": 1})
