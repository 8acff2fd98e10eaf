"""Unit tests for the runtime wire protocol: framing, the frame cutter,
backpressure and the message mapping."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.runtime.protocol import (
    MAX_FRAME_BYTES,
    Connection,
    FrameBodyError,
    FrameProtocol,
    FrameServer,
    ProtocolError,
    decode_frame,
    encode_frame,
    message_to_wire,
    wire_to_message,
)
from repro.sim.network import Message
from repro.wire import decode_value, encode_value

from raw_frames import connected, posted


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


class Cutter(FrameProtocol):
    """The framing alone: records each body it is handed."""

    def __init__(self):
        super().__init__()
        self.bodies = []
        self.unframeable = []

    def _received(self, body):
        self.bodies.append(body)

    def _unframeable(self, exc):
        self.unframeable.append(exc)


class TestCutter:
    FIRST = {"type": "msg", "kind": "pira"}
    SECOND = {"type": "reply", "rid": 7, "ok": True}

    def test_one_chunk_gives_every_frame_in_order(self):
        cutter, _ = connected(Cutter())
        cutter.data_received(encode_frame(self.FIRST) + encode_frame(self.SECOND))
        assert [decode_frame(body) for body in cutter.bodies] == [self.FIRST, self.SECOND]
        assert all(type(body) is bytes for body in cutter.bodies)
        assert cutter._buffer == b""

    def test_byte_at_a_time_gives_each_frame_once_complete(self):
        cutter, _ = connected(Cutter())
        stream = encode_frame(self.FIRST) + encode_frame(self.SECOND)
        first_end = len(encode_frame(self.FIRST))
        for index in range(len(stream)):
            cutter.data_received(stream[index : index + 1])
            assert len(cutter.bodies) == (index + 1 >= first_end) + (index + 1 == len(stream))
        assert [decode_frame(body) for body in cutter.bodies] == [self.FIRST, self.SECOND]

    def test_truncated_frame_waits_for_the_rest(self):
        cutter, _ = connected(Cutter())
        frame = encode_frame({"a": 1})
        cutter.data_received(frame[:-2])
        assert cutter.bodies == []
        cutter.data_received(frame[-2:])
        assert cutter.bodies == [frame[4:]]

    def test_giant_length_is_unframeable(self):
        cutter, _ = connected(Cutter())
        cutter.data_received(encode_frame(self.FIRST) + (MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        assert [decode_frame(body) for body in cutter.bodies] == [self.FIRST]
        [error] = cutter.unframeable
        assert isinstance(error, ProtocolError)
        assert not isinstance(error, FrameBodyError)  # not recoverable

    def test_nothing_is_cut_once_the_transport_closes(self):
        cutter, transport = connected(Cutter())
        transport.closing = True
        cutter.data_received(encode_frame(self.FIRST))
        assert cutter.bodies == []


class TestBackpressure:
    """A full send buffer stops a server reading and a client's drain."""

    def test_a_server_reads_nothing_while_writing_is_paused(self):
        handled = []

        def handle(frame, body):
            handled.append(frame["n"])
            if frame["n"] == 0:
                # the reply overfills the send buffer: what the transport
                # reports from inside its write
                server.pause_writing()
            return {"ok": True}

        server, transport = connected(FrameServer(handle))
        stream = b"".join(encode_frame({"type": "ping", "rid": n, "n": n}) for n in range(3))
        server.data_received(stream)
        assert handled == [0] and not transport.reading
        server.data_received(encode_frame({"type": "ping", "rid": 3, "n": 3}))
        assert handled == [0]  # still paused: buffered, not read
        server.resume_writing()
        assert transport.reading
        assert handled == [0, 1, 2, 3]
        assert [frame["rid"] for frame in transport.frames()] == [0, 1, 2, 3]

    def test_resume_after_close_reads_nothing(self):
        handled = []
        server, transport = connected(FrameServer(lambda frame, body: handled.append(frame)))
        server.pause_writing()
        server.data_received(encode_frame({"type": "msg"}))
        transport.close()
        server.resume_writing()
        assert handled == [] and not transport.reading

    def test_a_client_drain_waits_for_resume(self):
        async def scenario():
            connection, transport = connected(Connection())
            await connection.drain()  # not paused: returns at once
            connection.pause_writing()
            draining = asyncio.ensure_future(connection.drain())
            future = posted(connection.post_frame, {"type": "ping"})
            for _ in range(3):
                await asyncio.sleep(0)
            assert not draining.done()
            # a paused client still reads: its replies are what drain it
            connection.data_received(encode_frame({"type": "reply", "rid": 1, "ok": True}))
            assert future.result()["ok"] is True
            connection.resume_writing()
            await asyncio.wait_for(draining, timeout=1.0)

        asyncio.run(scenario())

    def test_a_cancelled_drain_leaves_the_others_waiting(self):
        async def scenario():
            connection, _ = connected(Connection())
            connection.pause_writing()
            first = asyncio.ensure_future(connection.drain())
            second = asyncio.ensure_future(connection.drain())
            await asyncio.sleep(0)
            first.cancel()
            await asyncio.sleep(0)
            assert first.cancelled() and not second.done()
            connection.resume_writing()
            await asyncio.wait_for(second, timeout=1.0)

        asyncio.run(scenario())

    def test_a_frame_that_cannot_be_encoded_registers_nothing(self):
        """The encode raises to the caller before the rid is registered:
        no timer is left to run ``then`` a second time later."""

        async def scenario():
            connection, transport = connected(Connection())
            calls = []
            with pytest.raises(TypeError):
                connection.post_frame({"type": "ping", "x": {1}}, lambda *args: calls.append(args), 0.01)
            assert connection.in_flight == 0 and transport.written == []
            await asyncio.sleep(0.05)
            assert calls == []

        asyncio.run(scenario())

    def test_connection_lost_releases_a_drain(self):
        async def scenario():
            connection, _ = connected(Connection())
            connection.pause_writing()
            draining = asyncio.ensure_future(connection.drain())
            future = posted(connection.post_frame, {"type": "ping"})
            await asyncio.sleep(0)
            connection.connection_lost(None)
            await asyncio.wait_for(draining, timeout=1.0)
            with pytest.raises(ConnectionError):
                future.result()

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
