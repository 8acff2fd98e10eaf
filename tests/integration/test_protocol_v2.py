"""Gateway connection edge cases: framing errors, bad requests, multiplexing.

Every malformed input gets a *structured* error frame — the gateway must
never close a connection silently — and rid-tagged replies must
re-associate correctly no matter how requests interleave.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.api.live import LiveSession
from repro.api.requests import ApiError, Get, Insert, RangeQuery, Stats
from repro.core.pira import RangeQueryResult
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway
from repro.runtime.node import PeerNode
from repro.runtime.protocol import MAX_FRAME_BYTES, Connection, encode_frame
from repro.runtime.storenode import StoreNodeServer
from repro.wire import encode_column

from raw_frames import read_frame

SEED = 7
INTERVALS = ((0.0, 1000.0), (0.0, 1000.0))
#: a decodable (empty) query result, for payloads damaged elsewhere
EMPTY_RESULT = RangeQueryResult(origin="010", query_id=1).to_wire()


async def boot(num_peers: int = 8):
    cluster = LiveCluster(num_peers=num_peers, seed=SEED, attribute_intervals=INTERVALS)
    await cluster.start()
    gateway = await Gateway(cluster).start()
    return cluster, gateway


async def teardown(cluster, gateway):
    await gateway.shutdown()
    await cluster.stop()


@contextlib.asynccontextmanager
async def gateway_connection(tmp_path):
    """A gateway connection, its ping frame and what a pong looks like."""
    cluster, gateway = await boot()
    try:
        reader, writer = await asyncio.open_connection(*gateway.address)
        ping = {"type": "request", "rid": 10, "request": {"op": "ping"}}
        yield reader, writer, ping, lambda reply: reply["payload"]["type"] == "pong"
        writer.close()
    finally:
        await teardown(cluster, gateway)


@contextlib.asynccontextmanager
async def peer_node_connection(tmp_path):
    node = await PeerNode(
        "node-0", "127.0.0.1", lambda node, frame, body: {"ok": True} if "rid" in frame else None
    ).start()
    try:
        reader, writer = await asyncio.open_connection(*node.address)
        yield reader, writer, {"type": "ping", "rid": 10}, lambda reply: reply["ok"] is True
        writer.close()
    finally:
        await node.stop()


@contextlib.asynccontextmanager
async def storenode_connection(tmp_path):
    server = StoreNodeServer(str(tmp_path / "peer.wal"))
    port = await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        yield reader, writer, {"op": "ping", "rid": 10}, lambda reply: reply["ok"] is True
        writer.close()
    finally:
        await server.stop()


SERVERS = pytest.mark.parametrize(
    "connect",
    [gateway_connection, peer_node_connection, storenode_connection],
    ids=["gateway", "peer-node", "storenode"],
)


class TestFrameErrors:
    def test_text_line_opening_gets_one_fatal_error_then_eof(self):
        """The first four bytes of a text command read as an absurd frame
        length: the old line protocol is answered like any unframeable
        stream — told why, then closed — not left hanging."""

        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
                writer.write(b"ping\n")
                await writer.drain()
                error = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert error["type"] == "error"
                assert error["fatal"] is True
                assert "exceeds" in error["error"]
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_unknown_frame_type_errors_but_connection_survives(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
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

    @pytest.mark.parametrize(
        "frame",
        [{"type": "hello", "version": 2, "rid": 3}, {"type": "batch", "rid": 3, "requests": []}],
        ids=["hello", "batch"],
    )
    def test_retired_frame_types_are_unknown(self, frame):
        """No handshake and no batch frame: both are answered like any
        unknown type, and a request right after them is served."""

        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
                writer.write(encode_frame(frame))
                writer.write(
                    encode_frame({"type": "request", "rid": 4, "request": {"op": "ping"}})
                )
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["rid"] == 3
                assert f"unknown frame type {frame['type']!r}" in error["error"]
                assert "known: request, quit" in error["error"]
                reply = await read_frame(reader)
                assert (reply["type"], reply["rid"]) == ("reply", 4)
                assert reply["payload"]["type"] == "pong"
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_an_older_clients_stream_option_gets_exactly_one_reply(self):
        """A query's answer is one ``reply`` frame: an older client's
        ``"stream"`` option is ignored like any unknown key, and nothing
        else is written for the request — the next frame answers a ping."""

        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
                query = {"op": "range", "low": 0.0, "high": 1000.0, "options": {"stream": True}}
                writer.write(encode_frame({"type": "request", "rid": 5, "request": query}))
                await writer.drain()
                reply = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert (reply["type"], reply["rid"]) == ("reply", 5)
                assert reply["payload"]["status"] == "ok"
                assert reply["payload"]["result"]["destinations"]
                writer.write(encode_frame({"type": "request", "rid": 6, "request": {"op": "ping"}}))
                await writer.drain()
                pong = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert (pong["type"], pong["rid"]) == ("reply", 6)
                assert pong["payload"]["type"] == "pong"
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_missing_rid_errors(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
                writer.write(encode_frame({"type": "request", "request": {"op": "ping"}}))
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert "integer 'rid'" in error["error"]
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_duplicate_rid_errors_while_original_answers(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
                query = {"op": "range", "low": 100.0, "high": 400.0}
                for _ in range(2):
                    writer.write(encode_frame({"type": "request", "rid": 5, "request": query}))
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
                reader, writer = await asyncio.open_connection(*gateway.address)
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

    @SERVERS
    def test_oversized_frame_gets_fatal_error_then_close(self, connect, tmp_path):
        async def scenario():
            async with connect(tmp_path) as (reader, writer, _ping, _is_pong):
                # A length prefix beyond the cap: unframeable, unrecoverable.
                writer.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["fatal"] is True
                assert "exceeds" in error["error"]
                assert await read_frame(reader) is None  # close follows

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "request_object, complaint",
        [
            ({"op": "range", "low": "x"}, "malformed 'range' request"),
            ({"op": "range", "low": 1, "high": 2, "options": 5}, "options must be a JSON object"),
            ({"op": "range", "low": 1, "high": 2, "options": {"deadline": "x"}}, "malformed"),
            ({"op": "range", "low": float("nan"), "high": 2.0}, "not a number"),
            ({"op": "mrange", "ranges": [[0.0, float("nan")]]}, "not a number"),
            ({"op": "range", "low": 1, "high": 2, "options": {"replicas": 2}}, "inserts only"),
        ],
        ids=["bad-bound", "options-not-object", "bad-deadline", "nan", "mrange-nan", "replicas"],
    )
    def test_malformed_request_object_errors_with_rid(self, request_object, complaint):
        """The error is tagged with the request's rid and says what is
        wrong, and the rid is free again for the next request."""

        async def scenario():
            cluster, gateway = await boot()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
                writer.write(encode_frame({"type": "request", "rid": 3, "request": request_object}))
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert error["rid"] == 3
                assert complaint in error["error"]
                writer.write(encode_frame({"type": "request", "rid": 3, "request": {"op": "ping"}}))
                await writer.drain()
                reply = await read_frame(reader)
                assert reply["type"] == "reply" and reply["rid"] == 3
                assert reply["payload"]["type"] == "pong"
                writer.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestBadBody:
    """A well-framed body that is not a JSON object has one outcome, whatever
    is wrong with it and whichever server reads it: a non-fatal error frame,
    and the connection — whose length framing is intact — keeps serving."""

    @SERVERS
    @pytest.mark.parametrize(
        "body",
        [b"abc", b"\xff\xfe{", b"[1]", b"\xc1\x00"],
        ids=["not-json", "not-utf8", "not-an-object", "binframe"],
    )
    def test_error_then_still_serving(self, body, connect, tmp_path):
        async def scenario():
            async with connect(tmp_path) as (reader, writer, ping, is_pong):
                writer.write(len(body).to_bytes(4, "big") + body)
                writer.write(encode_frame(ping))
                await writer.drain()
                error = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert error["type"] == "error"
                assert "fatal" not in error and "rid" not in error
                reply = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert reply["type"] == "reply"
                assert reply["rid"] == 10
                assert is_pong(reply)

        asyncio.run(scenario())

    def test_stats_has_no_per_dialect_keys(self):
        async def scenario():
            cluster, gateway = await boot()
            try:
                async with await LiveSession.connect(*gateway.address, pool=1) as session:
                    stats = await session.stats()
                assert stats["connections"] == 1
                assert not {
                    "protocol_versions",
                    "tracing",
                    "v1_connections",
                    "v2_connections",
                    "encodings",
                    "json_connections",
                    "binary_connections",
                    "active_encodings",
                } & set(stats)
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestSessionClose:
    def test_v2_close_fails_in_flight_requests_promptly(self):
        """Closing a session must fail pending futures immediately, not
        leave them to sit out the full reply timeout."""

        async def scenario():
            async def v2_handler(reader, writer):
                try:
                    while await read_frame(reader) is not None:
                        pass  # swallow every request silently
                finally:
                    writer.close()

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


class TestOneAttempt:
    """A session submits a request once: a timeout is the caller's error, the
    insert behind it is stored once, and the timed-out request stops counting
    as in flight at once (a late reply for it is ignored)."""

    @staticmethod
    def count_stores(cluster, delay=0.0):
        """Wrap ``cluster.store``, delayed by ``delay`` s; returns the list
        each call appends its ObjectID to."""
        calls = []
        store = cluster.store

        async def counted(object_id, *args):
            calls.append(object_id)
            await asyncio.sleep(delay)
            return await store(object_id, *args)

        cluster.store = counted
        return calls

    def test_an_older_clients_retries_option_runs_the_insert_once(self):
        async def scenario():
            cluster, gateway = await boot()
            calls = self.count_stores(cluster)
            try:
                connection = await Connection.open(*gateway.address)
                try:
                    request = {"op": "insert", "value": 42.0, "options": {"retries": 1}}
                    reply = await connection.request({"type": "request", "request": request})
                finally:
                    await connection.close()
                assert reply["payload"]["type"] == "inserted"
                assert len(calls) == 1
                assert cluster.network.total_objects() == 1
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_a_timed_out_insert_is_stored_once_and_leaves_nothing_in_flight(self):
        async def scenario():
            cluster, gateway = await boot()
            calls = self.count_stores(cluster, delay=0.3)
            try:
                session = await LiveSession.connect(*gateway.address, pool=1, timeout=0.1)
                try:
                    with pytest.raises(TimeoutError):
                        await session.insert(42.0)
                    assert session.in_flight == 0
                    await asyncio.sleep(0.5)  # the late ack arrives and is ignored
                    assert len(calls) == 1
                    assert cluster.network.total_objects() == 1
                    assert await session.ping()
                finally:
                    await session.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_a_timed_out_batch_leaves_nothing_in_flight(self):
        async def scenario():
            cluster, gateway = await boot()
            calls = self.count_stores(cluster, delay=0.3)
            try:
                session = await LiveSession.connect(*gateway.address, pool=2, timeout=0.1)
                try:
                    with pytest.raises(TimeoutError):
                        await session.batch([Insert(value=float(value)) for value in range(4)])
                    assert session.in_flight == 0
                    await asyncio.sleep(0.5)
                    assert len(calls) == 4
                    assert cluster.network.total_objects() == 4
                finally:
                    await session.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestMalformedResult:
    """A reply payload the session cannot decode is an ``ApiError`` for
    that request — never a ``KeyError`` out of ``submit``/``batch`` — and
    the connection (whose framing is intact) keeps serving."""

    @staticmethod
    def run_against_damaged_gateway(damage, scenario, payload=None):
        """Run ``scenario(session)`` against a gateway that answers a
        ``ping`` honestly and every other request with ``payload`` — by
        default a two-match result whose ``matches`` went through
        ``damage``."""
        from repro.fissione.peer import StoredObject

        if payload is None:
            result = RangeQueryResult(origin="010", query_id=1)
            result.matches = [StoredObject("0101", 1.0, 1.0), StoredObject("0102", 2.0, 2.0)]
            wire = result.to_wire()
            assert wire["matches"]["key"] == encode_column([1.0, 2.0])
            damage(wire["matches"])
            payload = {"ok": True, "type": "result", "status": "ok", "latency": 0.0, "result": wire}
        pong = {"ok": True, "type": "pong"}

        async def run():
            async def gateway(reader, writer):
                try:
                    while (frame := await read_frame(reader)) is not None:
                        ping = frame["request"]["op"] == "ping"
                        answer = pong if ping else payload
                        writer.write(
                            encode_frame({"type": "reply", "rid": frame["rid"], "payload": answer})
                        )
                        await writer.drain()
                finally:
                    writer.close()

            server = await asyncio.start_server(gateway, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                session = await LiveSession.connect("127.0.0.1", port, pool=1, timeout=5.0)
                await scenario(session)
                await session.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    def test_unequal_match_columns_raise_api_error_through_a_session(self):
        async def scenario(session):
            query = RangeQuery(low=0.0, high=10.0)
            with pytest.raises(ApiError, match="malformed result payload.*unequal length"):
                await session.submit(query)
            with pytest.raises(ApiError, match="'key': 1"):
                await session.batch([query, query])
            await session.ping()  # pool=1: the same connection, still serving

        self.run_against_damaged_gateway(
            lambda matches: matches.update(key=encode_column([1.0])), scenario
        )

    @pytest.mark.parametrize(
        "damage, complaint",
        [
            (lambda matches: matches["key"].update(f64="AAAA AAAA"), "not valid base64"),
            (lambda matches: matches["key"].update(f64="AAAAAAAA"), "not a whole number"),
            (lambda matches: matches["key"].update(f64=[1.0, 2.0]), "not a string"),
            (lambda matches: matches["key"].update(f32=""), "keys beside 'f64'"),
        ],
    )
    def test_malformed_packed_column_fails_one_request_not_the_connection(self, damage, complaint):
        async def scenario(session):
            with pytest.raises(ApiError, match=f"malformed result.*column 'key'.*{complaint}"):
                await session.range(0.0, 10.0)
            await session.ping()
            with pytest.raises(ApiError, match="column 'key'"):
                await session.batch([RangeQuery(low=0.0, high=10.0)])
            await session.ping()

        self.run_against_damaged_gateway(damage, scenario)

    @pytest.mark.parametrize(
        "request_, payload, complaint",
        [
            (
                RangeQuery(low=0.0, high=10.0),
                {"ok": True, "type": "result", "latency": 0.0, "result": EMPTY_RESULT},
                r"malformed result payload: KeyError\('status'\)",
            ),
            (
                RangeQuery(low=0.0, high=10.0),
                {
                    "ok": True,
                    "type": "result",
                    "status": "ok",
                    "latency": "fast",
                    "result": EMPTY_RESULT,
                },
                "malformed result payload: ValueError",
            ),
            (
                Insert(value=1.0),
                {"ok": True, "type": "inserted", "owner": "010"},
                r"malformed inserted payload: KeyError\('object_id'\)",
            ),
            (
                Get(value=1.0),
                {"ok": True, "type": "found", "peer": "010"},
                r"malformed found payload: KeyError\('object_id'\)",
            ),
            (
                Stats(),
                {"ok": True, "type": "stats"},
                r"malformed stats payload: KeyError\('stats'\)",
            ),
            (Insert(value=1.0), [1, 2], "malformed reply payload: not a JSON object"),
        ],
        ids=["no-status", "latency-not-a-number", "inserted", "found", "stats", "a-list"],
    )
    def test_any_undecodable_payload_is_an_api_error(self, request_, payload, complaint):
        async def scenario(session):
            with pytest.raises(ApiError, match=complaint):
                await session.submit(request_)
            await session.ping()  # pool=1: the same connection, still serving

        self.run_against_damaged_gateway(None, scenario, payload)
