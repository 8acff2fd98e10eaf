"""Protocol v2 edge cases: handshake, framing errors, multiplexing.

The satellite contract of the API-redesign PR: every malformed input gets
a *structured* error frame — the gateway must never close a v2 connection
silently — and rid-tagged replies must re-associate correctly no matter
how requests interleave.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api.live import LiveSession
from repro.api.requests import ApiError
from repro.runtime.client import RuntimeClient
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway
from repro.runtime.protocol import (
    ENCODING_BINARY,
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    encode_frame_binary,
    hello_frame,
    read_frame,
)

SEED = 7
INTERVALS = ((0.0, 1000.0), (0.0, 1000.0))


async def boot(num_peers: int = 8):
    cluster = LiveCluster(num_peers=num_peers, seed=SEED, attribute_intervals=INTERVALS)
    await cluster.start()
    gateway = await Gateway(cluster).start()
    return cluster, gateway


async def teardown(cluster, gateway):
    await gateway.shutdown()
    await cluster.stop()


async def raw_v2(gateway, versions=(2,), encoding="json"):
    """A raw handshaken v2 connection (reader, writer)."""
    reader, writer = await asyncio.open_connection(*gateway.address)
    writer.write(encode_frame(hello_frame(versions=versions, encoding=encoding)))
    await writer.drain()
    return reader, writer


class TestHandshake:
    def test_welcome(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway)
                welcome = await read_frame(reader)
                assert welcome["type"] == "welcome"
                assert welcome["version"] == 2
                assert "batch" in welcome["features"]
                assert "stream" in welcome["features"]
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_version_mismatch_gets_structured_error_not_silence(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway, versions=(99,))
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["fatal"] is True
                assert "unsupported protocol versions [99]" in error["error"]
                assert "[1, 2]" in error["error"]  # tells the client what works
                assert await read_frame(reader) is None  # then the close
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_non_hello_first_frame_gets_structured_error(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
                writer.write(encode_frame({"type": "request", "rid": 1}))
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["fatal"] is True
                assert "hello" in error["error"]
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_client_session_surfaces_handshake_rejection(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                # A session pinned to an impossible version list would be a
                # client bug; the point is the error is a readable ApiError.
                reader, writer = await raw_v2(gateway, versions=(3,))
                error = await read_frame(reader)
                assert error["type"] == "error"
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestFrameErrors:
    def test_unknown_frame_type_errors_but_connection_survives(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway)
                await read_frame(reader)  # welcome
                writer.write(encode_frame({"type": "mystery", "rid": 7}))
                writer.write(
                    encode_frame(
                        {"type": "request", "rid": 8, "request": {"op": "ping"}}
                    )
                )
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["rid"] == 7
                assert "unknown frame type 'mystery'" in error["error"]
                reply = await read_frame(reader)  # the ping still answers
                assert reply["type"] == "reply"
                assert reply["rid"] == 8
                assert reply["payload"]["type"] == "pong"
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_missing_rid_errors(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway)
                await read_frame(reader)
                writer.write(encode_frame({"type": "request", "request": {"op": "ping"}}))
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert "integer 'rid'" in error["error"]
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_duplicate_rid_in_batch_errors_while_original_answers(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway)
                await read_frame(reader)
                query = {"op": "range", "low": 100.0, "high": 400.0}
                writer.write(
                    encode_frame(
                        {
                            "type": "batch",
                            "requests": [
                                {"rid": 5, "request": query},
                                {"rid": 5, "request": query},
                            ],
                        }
                    )
                )
                await writer.drain()
                frames = [await read_frame(reader), await read_frame(reader)]
                kinds = sorted(frame["type"] for frame in frames)
                assert kinds == ["error", "reply"]
                error = next(frame for frame in frames if frame["type"] == "error")
                # NOT rid-tagged: rid 5 still belongs to the original
                # request, and a rid-tagged error would tell a conforming
                # client to fail that request's future and discard its
                # (perfectly good) reply when it lands.
                assert "rid" not in error
                assert "duplicate request id 5" in error["error"]
                reply = next(frame for frame in frames if frame["type"] == "reply")
                assert reply["rid"] == 5
                assert reply["payload"]["ok"] is True
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_rid_reusable_after_completion(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway)
                await read_frame(reader)
                for _ in range(2):  # same rid, sequentially: fine
                    writer.write(
                        encode_frame(
                            {"type": "request", "rid": 1, "request": {"op": "ping"}}
                        )
                    )
                    await writer.drain()
                    reply = await read_frame(reader)
                    assert reply["type"] == "reply" and reply["rid"] == 1
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_oversized_frame_gets_fatal_error_then_close(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway)
                await read_frame(reader)  # welcome
                # A length prefix beyond the cap: unframeable, unrecoverable.
                writer.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["fatal"] is True
                assert "exceeds" in error["error"]
                assert await read_frame(reader) is None  # close follows
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_malformed_request_object_errors_with_rid(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway)
                await read_frame(reader)
                writer.write(
                    encode_frame(
                        {"type": "request", "rid": 3, "request": {"op": "range", "low": "x"}}
                    )
                )
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["rid"] == 3
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestEncodingNegotiation:
    """Satellite of the binary-hot-path PR: the ``encoding`` handshake key
    and the per-connection rules it creates."""

    def test_welcome_defaults_to_json_for_old_clients(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway)
                welcome = await read_frame(reader)
                assert welcome["type"] == "welcome"
                assert welcome["encoding"] == "json"
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_binary_negotiation_round_trip(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway, encoding=ENCODING_BINARY)
                welcome = await read_frame(reader)  # control frames stay JSON
                assert welcome["type"] == "welcome"
                assert welcome["encoding"] == "binary"
                writer.write(
                    encode_frame_binary(
                        {"type": "request", "rid": 1, "request": {"op": "ping"}}
                    )
                )
                await writer.drain()
                # Peek the raw reply body: it must be a binary frame.
                prefix = await reader.readexactly(4)
                body = await reader.readexactly(int.from_bytes(prefix, "big"))
                assert body[0] == 0xC1
                from repro.runtime.binframe import decode_binary

                reply = decode_binary(body)
                assert reply["type"] == "reply"
                assert reply["rid"] == 1
                assert reply["payload"]["type"] == "pong"
                # And the gateway's stats report the negotiation.
                reader2, writer2 = await raw_v2(gateway)
                await read_frame(reader2)
                writer2.write(
                    encode_frame(
                        {"type": "request", "rid": 1, "request": {"op": "stats"}}
                    )
                )
                await writer2.drain()
                stats = (await read_frame(reader2))["payload"]["stats"]
                assert stats["binary_connections"] >= 1
                assert stats["active_encodings"]["binary"] >= 1
                assert stats["active_encodings"]["json"] >= 1
                writer.close()
                writer2.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_unknown_encoding_gets_fatal_structured_error(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway, encoding="zstd")
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["fatal"] is True
                assert "zstd" in error["error"]
                # tells the client what would have worked
                assert "json" in error["error"] and "binary" in error["error"]
                assert await read_frame(reader) is None  # then the close
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_binary_frame_on_json_connection_errors_but_survives(self):
        """Length framing is intact, so an unexpected binary body is
        recoverable: structured error, then the connection keeps working."""

        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway)  # negotiated JSON
                await read_frame(reader)  # welcome
                writer.write(
                    encode_frame_binary(
                        {"type": "request", "rid": 9, "request": {"op": "ping"}}
                    )
                )
                writer.write(
                    encode_frame(
                        {"type": "request", "rid": 10, "request": {"op": "ping"}}
                    )
                )
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error.get("fatal") is not True
                assert "binary" in error["error"]
                reply = await read_frame(reader)  # the JSON ping still answers
                assert reply["type"] == "reply"
                assert reply["rid"] == 10
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_oversized_binary_frame_fatal_like_oversized_json(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await raw_v2(gateway, encoding=ENCODING_BINARY)
                await read_frame(reader)  # welcome
                writer.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\xc1")
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["fatal"] is True
                assert "exceeds" in error["error"]
                assert await read_frame(reader) is None
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_client_side_oversized_binary_encode_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame_binary({"type": "reply", "rid": 1, "blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_mixed_encoding_clients_pipeline_on_one_gateway(self):
        """One JSON session and one binary session, interleaved requests —
        every reply re-associates on the right connection with identical
        results (the encoding changes bytes, never semantics)."""

        async def scenario():
            cluster, gateway = await boot()
            try:
                json_session = await LiveSession.connect(*gateway.address, pool=2)
                bin_session = await LiveSession.connect(
                    *gateway.address, pool=2, encoding=ENCODING_BINARY
                )
                assert bin_session.encoding == ENCODING_BINARY
                await json_session.insert(123.0)
                origin = sorted(cluster.network.peer_ids())[0]
                json_replies, bin_replies = await asyncio.gather(
                    asyncio.gather(
                        *(json_session.range(0.0, 500.0, origin=origin) for _ in range(6))
                    ),
                    asyncio.gather(
                        *(bin_session.range(0.0, 500.0, origin=origin) for _ in range(6))
                    ),
                )
                for json_reply, bin_reply in zip(json_replies, bin_replies):
                    assert json_reply.result.matching_values() == [123.0]
                    assert (
                        bin_reply.result.matching_values()
                        == json_reply.result.matching_values()
                    )
                    assert bin_reply.result.messages == json_reply.result.messages
                stats = await json_session.stats()
                assert stats["active_encodings"] == {"json": 2, "binary": 2}
                await json_session.close()
                await bin_session.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestV1Fallback:
    def test_v1_lines_still_work_on_the_same_port(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                client = await RuntimeClient.connect(*gateway.address)
                assert await client.ping()
                await client.insert(500.0)
                reply = await client.range(0.0, 1000.0)
                assert reply.result.matching_values() == [500.0]
                stats = await client.stats()
                assert stats["v1_connections"] >= 1
                await client.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_v1_error_replies_stay_json_lines(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
                writer.write(b"range 1\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["ok"] is False
                assert "usage: range" in reply["error"]
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestRuntimeClientErrors:
    """Satellite: the v1 client surfaces clear errors, never silent hangs."""

    async def _serve_once(self, payload: bytes):
        """A fake gateway that answers any line with ``payload`` then closes."""

        async def handler(reader, writer):
            await reader.readline()
            writer.write(payload)
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        return server, server.sockets[0].getsockname()[1]

    def test_unparseable_reply_line_raises_protocol_error(self):
        async def scenario():
            server, port = await self._serve_once(b"this is not json\n")
            try:
                client = await RuntimeClient.connect("127.0.0.1", port)
                with pytest.raises(ProtocolError, match="unparseable gateway reply"):
                    await client.ping()
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_connection_dropped_mid_reply_raises_connection_error(self):
        async def scenario():
            server, port = await self._serve_once(b'{"ok": true, "type"')  # no newline
            try:
                client = await RuntimeClient.connect("127.0.0.1", port)
                with pytest.raises(ConnectionError, match="mid-reply"):
                    await client.ping()
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_closed_before_reply_raises_connection_error(self):
        async def scenario():
            server, port = await self._serve_once(b"")
            try:
                client = await RuntimeClient.connect("127.0.0.1", port)
                with pytest.raises(ConnectionError, match="before replying"):
                    await client.ping()
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_v1_session_times_out_instead_of_hanging(self):
        """A wedged gateway (accepts, never replies) must bound the v1
        path by the session timeout, and the FIFO-poisoned connection must
        not be reused."""

        async def scenario():
            async def handler(reader, writer):
                await reader.readline()  # swallow the command, reply never

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                session = await LiveSession.connect(
                    "127.0.0.1", port, pool=1, version=1, timeout=0.2
                )
                poisoned = session._v1_clients[0]
                with pytest.raises(asyncio.TimeoutError):
                    await session.ping()
                # the timed-out connection was retired and replaced
                assert poisoned not in session._v1_clients
                assert session.pool_size == 1
                await session.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_v2_close_fails_in_flight_requests_promptly(self):
        """Closing a session must fail pending futures immediately, not
        leave them to sit out the full reply timeout."""

        async def scenario():
            async def v2_handler(reader, writer):
                frame = await read_frame(reader)
                assert frame["type"] == "hello"
                from repro.runtime.protocol import encode_frame, welcome_frame

                writer.write(encode_frame(welcome_frame()))
                await writer.drain()
                while await read_frame(reader) is not None:
                    pass  # swallow every request silently

            server = await asyncio.start_server(v2_handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                session = await LiveSession.connect("127.0.0.1", port, pool=1, timeout=30.0)
                submission = asyncio.get_running_loop().create_task(
                    session.ping()
                )
                await asyncio.sleep(0.05)  # let the request frame go out
                await session.close()
                with pytest.raises((ConnectionError, ApiError)):
                    # well under the 30s reply timeout: the close itself
                    # must resolve the pending future
                    await asyncio.wait_for(submission, timeout=2.0)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_overlapping_callers_serialise_instead_of_interleaving(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                client = await RuntimeClient.connect(*gateway.address)
                await client.insert(500.0)
                replies = await asyncio.gather(
                    *(client.range(0.0, 1000.0) for _ in range(8))
                )
                assert all(reply.result.matching_values() == [500.0] for reply in replies)
                await client.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestMalformedResult:
    """A ``result`` payload the session cannot decode is an ``ApiError`` for
    that request — never a ``KeyError`` out of ``submit``/``batch`` — and
    the connection (whose framing is intact) keeps serving."""

    def test_unequal_match_columns_raise_api_error_through_a_session(self):
        from repro.api.requests import RangeQuery
        from repro.core.pira import RangeQueryResult
        from repro.fissione.peer import StoredObject
        from repro.runtime.protocol import welcome_frame

        result = RangeQueryResult(origin="010", query_id=1)
        result.matches = [StoredObject("0101", 1.0, 1.0), StoredObject("0102", 2.0, 2.0)]
        wire = result.to_wire()
        wire["matches"]["key"].pop()

        async def scenario():
            async def gateway(reader, writer):
                assert (await read_frame(reader))["type"] == "hello"
                writer.write(encode_frame(welcome_frame()))
                while (frame := await read_frame(reader)) is not None:
                    payload = {
                        "ok": True, "type": "result", "status": "ok",
                        "latency": 0.0, "result": wire,
                    }
                    writer.write(
                        encode_frame({"type": "reply", "rid": frame["rid"], "payload": payload})
                    )
                    await writer.drain()

            server = await asyncio.start_server(gateway, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                session = await LiveSession.connect("127.0.0.1", port, pool=1, timeout=5.0)
                query = RangeQuery(low=0.0, high=10.0)
                with pytest.raises(ApiError, match="malformed result payload.*unequal length"):
                    await session.submit(query)
                with pytest.raises(ApiError, match="'key': 1"):
                    await session.batch([query, query])
                await session.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
