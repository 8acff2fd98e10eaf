"""The one framed connection, against a scripted loopback server.

:class:`~repro.runtime.protocol.Connection` is the client end of every
runtime socket (a node link, a gateway connection) and
:class:`~repro.runtime.protocol.FrameServer` the server end; these tests
pin what both promise, once, instead of once per caller.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.api.live import _V2Connection
from repro.api.requests import Ping
from repro.runtime.protocol import Connection, FrameServer, encode_frame
from repro.runtime.transport import AsyncioTransport, _Link
from repro.sim.network import Message

from raw_frames import posted, read_frame


@contextlib.asynccontextmanager
async def scripted_server(script):
    """A loopback server running ``script(reader, writer)`` per connection;
    yields ``(port, accepted)`` where ``accepted`` counts connections."""
    accepted = []

    async def handler(reader, writer):
        accepted.append(writer)
        try:
            await script(reader, writer)
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[1], accepted
    finally:
        server.close()
        await server.wait_closed()


@contextlib.asynccontextmanager
async def frame_server(handle):
    """A loopback :class:`FrameServer` answering with ``handle``; yields
    ``(port, accepted)`` where ``accepted`` counts connections."""
    accepted = []

    def connect():
        accepted.append(None)
        return FrameServer(handle)

    server = await asyncio.get_running_loop().create_server(connect, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[1], accepted
    finally:
        server.close()
        await server.wait_closed()


async def silent(reader, writer):
    """Swallow everything."""
    while await read_frame(reader) is not None:
        pass


async def node_request(port):
    connection = await Connection.open("127.0.0.1", port)
    return connection, posted(connection.post_frame, {"type": "ping"})


async def gateway_request(port):
    connection = await _V2Connection.open("127.0.0.1", port)
    return connection, connection.post(Ping())


class TestRequests:
    def test_out_of_order_replies_reassociate(self):
        async def reversing(reader, writer):
            frames = [await read_frame(reader) for _ in range(3)]
            for frame in reversed(frames):
                writer.write(encode_frame({"type": "reply", "rid": frame["rid"], "echo": frame["n"]}))
            await writer.drain()
            await reader.read()

        async def scenario():
            async with scripted_server(reversing) as (port, _):
                connection = await Connection.open("127.0.0.1", port)
                replies = await asyncio.gather(
                    *(posted(connection.post_frame, {"type": "ping", "n": n}) for n in range(3))
                )
                assert [reply["echo"] for reply in replies] == [0, 1, 2]
                assert connection.in_flight == 0
                await connection.close()

        asyncio.run(scenario())

    def test_a_refusing_reply_is_a_value_not_an_exception(self):
        async def refusing(reader, writer):
            frame = await read_frame(reader)
            writer.write(
                encode_frame({"type": "reply", "rid": frame["rid"], "ok": False, "error": "no"})
            )
            await reader.read()

        async def scenario():
            async with scripted_server(refusing) as (port, _):
                connection = await Connection.open("127.0.0.1", port)
                reply = await posted(connection.post_frame, {"type": "store"})
                assert reply["ok"] is False and reply["error"] == "no"
                await connection.close()

        asyncio.run(scenario())

    def test_timed_out_request_leaves_no_rid_behind(self):
        async def scenario():
            async with scripted_server(silent) as (port, _):
                connection = await Connection.open("127.0.0.1", port)
                with pytest.raises(asyncio.TimeoutError):
                    await posted(connection.post_frame, {"type": "ping"}, timeout=0.05)
                assert connection.in_flight == 0
                assert not connection.closed  # one slow request is not a dead socket
                await connection.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("post", [node_request, gateway_request], ids=["node", "gateway"])
    @pytest.mark.parametrize("ending", ["peer-eof", "close", "transport-aborted"])
    def test_whatever_ends_the_reader_fails_every_pending_future(self, ending, post):
        """No awaiter sits out its timeout against a socket that can never
        answer: the futures fail the moment the connection ends."""

        async def scenario():
            async with scripted_server(silent) as (port, accepted):
                connection, first = await post(port)
                second = posted(connection.post_frame, {"type": "ping"})
                await connection.drain()
                if ending == "peer-eof":
                    while not accepted:
                        await asyncio.sleep(0.01)
                    accepted[0].close()
                elif ending == "close":
                    await connection.close()
                else:
                    connection.transport.abort()
                for future in (first, second):
                    with pytest.raises(ConnectionError):
                        await asyncio.wait_for(future, timeout=2.0)
                assert connection.closed and connection.in_flight == 0
                with pytest.raises(ConnectionError):
                    posted(connection.post_frame, {"type": "ping"})
                await connection.close()

        asyncio.run(scenario())


def message(dropped):
    return Message(sender="a", receiver="b", kind="pira", on_drop=dropped.append)


def link_to(port):
    return _Link(("127.0.0.1", port), lambda item: item.on_drop(item))


class TestLink:
    def test_casts_and_requests_share_one_socket_in_order(self):
        seen = []

        def handle(frame, body):
            seen.append(frame["type"])
            return {"ok": True} if "rid" in frame else None

        async def scenario():
            async with frame_server(handle) as (port, accepted):
                link = link_to(port)
                link.enqueue(message([]))  # buffered: the dial has not completed
                link.enqueue(encode_frame({"type": "gossip"}))
                reply = await posted(link.post, {"type": "ping"})
                assert reply["ok"] is True and reply["rid"] == 1
                link.enqueue(message([]))  # written straight to the socket
                await posted(link.post, {"type": "ping"})
                assert seen == ["msg", "gossip", "ping", "msg", "ping"]
                assert len(accepted) == 1
                await link.close()

        asyncio.run(scenario())

    def test_refused_dial_drops_every_message_queued_or_later(self):
        async def scenario():
            async with scripted_server(silent) as (port, _):
                pass  # the listener is gone: the port refuses
            dropped = []
            link = link_to(port)
            queued = [message(dropped) for _ in range(3)]
            for item in queued:
                link.enqueue(item)
            link.enqueue(b"a gossip frame: lost without a callback")
            assert dropped == []
            with pytest.raises(ConnectionError):
                await posted(link.post, {"type": "ping"})
            assert dropped == queued and link.broken
            late = message(dropped)
            link.enqueue(late)
            assert dropped == [*queued, late]
            await link.close()

        asyncio.run(scenario())

    def test_a_closed_transport_dials_nothing(self):
        """A send after close (a late gossip ack, a retry timer) is a drop,
        not a fresh socket that nothing would ever close."""

        async def scenario():
            async with frame_server(lambda frame, body: {"ok": True}) as (port, accepted):
                address = ("127.0.0.1", port)
                transport = AsyncioTransport()
                transport.assign("b", address)
                await transport.close()
                dropped = []
                late = message(dropped)
                transport.send(late)
                transport.send_frame(address, {"type": "gossip"})
                with pytest.raises(ConnectionError):
                    await posted(transport.post, address, {"type": "ping"})
                await asyncio.sleep(0.05)
                assert dropped == [late] and accepted == []
                await transport.close()

        asyncio.run(scenario())

    def test_connection_lost_breaks_the_link(self):
        async def hang_up(reader, writer):
            await read_frame(reader)

        async def scenario():
            async with scripted_server(hang_up) as (port, _):
                dropped = []
                link = link_to(port)
                link.enqueue(message(dropped))
                with pytest.raises(ConnectionError):
                    await posted(link.post, {"type": "ping"})
                assert link.broken and dropped == []
                late = message(dropped)
                link.enqueue(late)
                assert dropped == [late]
                await link.close()

        asyncio.run(scenario())


class TestFrameServer:
    def test_handler_exception_is_answered_with_the_rid(self):
        def handle(frame, body):
            raise KeyError("peer")

        async def scenario():
            async with frame_server(handle) as (port, _):
                connection = await Connection.open("127.0.0.1", port)
                reply = await posted(connection.post_frame, {"type": "fetch"})
                assert reply == {"type": "reply", "rid": 1, "ok": False, "error": "KeyError: 'peer'"}
                await connection.close()

        asyncio.run(scenario())
