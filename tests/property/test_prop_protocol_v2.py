"""Property test: gateway replies re-associate to the right futures.

A gateway connection's whole point is that it carries many in-flight
requests whose replies arrive in *any* order — so the client's rid→future
re-association must be correct under every interleaving, not just the
ones a live gateway happens to produce.

Hypothesis drives a scripted in-test server that answers a batch of
requests in an arbitrary permutation, interleaving rid-tagged frames of a
type the client does not know (which it promises to ignore), and the test
asserts every :class:`~repro.api.live.LiveSession` future resolves to *its
own* request's payload (the reply echoes a value derived from the request,
so a mix-up cannot cancel out).
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.live import _V2Connection
from repro.api.requests import Insert
from repro.runtime.protocol import encode_frame

from raw_frames import read_frame


async def _permuting_server_round(permutation, unknown_counts):
    """One client/server exchange: the server replies in ``permutation``
    order; each reply is preceded by unknown frames tagged with its rid."""
    count = len(permutation)
    received: dict = {}

    async def handler(reader, writer):
        frames = [await read_frame(reader) for _ in range(count)]
        for frame in frames:
            received[frame["rid"]] = frame["request"]
        rids = [frames[index]["rid"] for index in permutation]
        for order, rid in enumerate(rids):
            for index in range(unknown_counts[permutation[order]]):
                writer.write(encode_frame({"type": "telemetry", "rid": rid, "index": index}))
            # The reply echoes the request's own value back through a field
            # the client returns verbatim — the re-association witness.
            writer.write(
                encode_frame(
                    {
                        "type": "reply",
                        "rid": rid,
                        "payload": {
                            "ok": True,
                            "type": "inserted",
                            "object_id": str(received[rid]["value"]),
                            "owner": f"owner-{rid}",
                        },
                    }
                )
            )
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        connection = await _V2Connection.open("127.0.0.1", port)
        try:
            futures = [connection.post(Insert(value=float(index))) for index in range(count)]
            await connection.drain()
            results = await asyncio.gather(*futures)
        finally:
            await connection.close()
    finally:
        server.close()
        await server.wait_closed()

    for index, frame in enumerate(results):
        assert frame["type"] == "reply"
        assert frame["payload"]["object_id"] == str(float(index)), (
            f"request {index} got someone else's reply: {frame}"
        )


@st.composite
def interleavings(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    permutation = draw(st.permutations(range(count)))
    unknown_counts = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=count, max_size=count)
    )
    return permutation, unknown_counts


@settings(max_examples=30, deadline=None)
@given(interleavings())
def test_interleaved_replies_reassociate_to_their_futures(case):
    permutation, unknown_counts = case
    asyncio.run(_permuting_server_round(list(permutation), unknown_counts))
