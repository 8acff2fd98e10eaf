"""The one framed connection, against a scripted loopback server.

:class:`~repro.runtime.protocol.Connection` is the client end of every
runtime socket (a node link, a gateway connection) and
:class:`~repro.runtime.protocol.FrameServer` the server end; these tests
pin what both promise, once, instead of once per caller.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc

import pytest

from repro.api.live import LiveSession, _V2Connection
from repro.api.requests import Ping
from repro.runtime.protocol import Connection, FrameServer, encode_frame
from repro.runtime.transport import AsyncioTransport, _Link
from repro.sim.network import Message

from raw_frames import connected, posted, read_frame


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


def armed(connection):
    """The connection's timers still armed on the running loop."""
    return [
        handle
        for handle in asyncio.get_running_loop()._scheduled
        if not handle.cancelled() and getattr(handle._callback, "__self__", None) is connection
    ]


class TestDeadlines:
    """A connection keeps its requests' deadlines in a heap under one loop
    timer armed for the earliest of them."""

    def test_a_short_deadline_behind_long_ones_expires_on_time(self):
        async def scenario():
            async with scripted_server(silent) as (port, _):
                connection = await Connection.open("127.0.0.1", port)
                slow = [posted(connection.post_frame, {"type": "ping"}, timeout=10.0) for _ in range(3)]
                short = posted(connection.post_frame, {"type": "ping"}, timeout=0.05)
                with pytest.raises(TimeoutError, match="within 0.05 s"):
                    await asyncio.wait_for(short, timeout=2.0)
                assert connection.in_flight == 3 and not any(future.done() for future in slow)
                await connection.close()
                for future in slow:
                    with pytest.raises(ConnectionError):
                        await future

        asyncio.run(scenario())

    def test_answered_requests_do_not_pile_up_in_the_store(self):
        """A settled rid's deadline is dropped lazily, but the heap is rebuilt
        once stale entries outnumber live ones: after 5 000 answered requests
        it holds at most twice the requests in flight plus a constant."""

        async def scenario():
            async with frame_server(lambda frame, body: {"ok": True}) as (port, _):
                connection = await Connection.open("127.0.0.1", port)
                for _ in range(100):
                    replies = [posted(connection.post_frame, {"type": "ping"}) for _ in range(50)]
                    assert len(connection._deadlines) <= 2 * connection.in_flight + 32
                    await asyncio.gather(*replies)
                assert connection.in_flight == 0
                assert len(connection._deadlines) <= 32
                await connection.close()

        asyncio.run(scenario())

    def test_close_runs_each_pending_then_once_and_disarms_the_timer(self):
        async def scenario():
            async with scripted_server(silent) as (port, _):
                connection = await Connection.open("127.0.0.1", port)
                errors = []
                for timeout in (10.0, 10.0, 0.05):  # the last re-arms earlier
                    connection.post_frame({"type": "ping"}, lambda reply, error: errors.append(error), timeout)
                assert len(armed(connection)) == 1
                await connection.close()
                assert len(errors) == 3 and all(isinstance(error, ConnectionError) for error in errors)
                assert armed(connection) == []
                await asyncio.sleep(0.1)  # past the short deadline: nothing runs again
                assert len(errors) == 3

        asyncio.run(scenario())

    def test_a_timer_run_early_expires_what_is_due_at_its_instant_and_moves_on(self):
        """The loop runs a timer up to one clock resolution before its
        instant.  What was due at that instant expires, and the timer is
        re-armed for the next deadline, never for the same instant (which
        would spin until the clock caught up)."""

        async def scenario():
            connection, _ = connected(Connection())
            errors = {}
            for name, timeout in (("first", 5.0), ("second", 10.0)):
                then = lambda reply, error, name=name: errors.setdefault(name, error)  # noqa: E731
                connection.post_frame({"type": "ping"}, then, timeout)
            (timer,) = armed(connection)
            fire = timer._callback
            timer.cancel()  # as the loop pops it, but well before its instant
            fire()
            assert isinstance(errors.pop("first"), TimeoutError) and errors == {}
            (rearmed,) = armed(connection)
            assert rearmed.when() > timer.when() + 4.0
            connection.connection_lost(None)
            assert armed(connection) == []

        asyncio.run(scenario())

    def test_a_batched_requests_timeout_runs_from_its_post(self):
        """A batch of two pings: the first is answered at 0.6 × the timeout,
        the second never.  The second fails one timeout after the batch was
        posted (1.6 × while each request's bound started when the batch
        came to await its reply)."""
        timeout = 1.0

        async def first_late_second_never(reader, writer):
            first, _ = await read_frame(reader), await read_frame(reader)
            await asyncio.sleep(0.6 * timeout)
            pong = {"type": "reply", "rid": first["rid"], "payload": {"ok": True, "type": "pong"}}
            writer.write(encode_frame(pong))
            await silent(reader, writer)

        async def scenario():
            async with scripted_server(first_late_second_never) as (port, _):
                session = await LiveSession.connect("127.0.0.1", port, pool=1, timeout=timeout)
                loop = asyncio.get_running_loop()
                started = loop.time()
                with pytest.raises(TimeoutError):
                    await session.batch([Ping(), Ping()])
                elapsed = loop.time() - started
                assert session.in_flight == 0
                await session.close()
            return elapsed

        elapsed = asyncio.run(scenario())
        assert elapsed < 1.3 * timeout, f"timed out {elapsed / timeout:.2f} timeouts after the post"

    def test_a_failed_batch_reports_only_the_failure_it_raises(self):
        """Three pings time out together; the batch raises the first one's
        ``TimeoutError``, and the other two are not reported to the loop as
        exceptions never retrieved."""

        async def scenario():
            reported = []
            asyncio.get_running_loop().set_exception_handler(lambda loop, context: reported.append(context))
            async with scripted_server(silent) as (port, _):
                session = await LiveSession.connect("127.0.0.1", port, pool=1, timeout=0.05)
                with pytest.raises(TimeoutError, match="request 1 "):
                    await session.batch([Ping(), Ping(), Ping()])
                await session.close()
            gc.collect()
            assert reported == []

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
