"""Property test: how the bytes arrive does not change what a server does.

A socket hands :meth:`~repro.runtime.protocol.FrameProtocol.data_received`
whatever the kernel had: a frame in pieces, many frames at once, a frame's
tail glued to the next one's head.  The server end must cut the same
frames out of every split.  Hypothesis draws a stream that mixes casts,
rid'd requests and bodies that are not JSON, optionally ended by an
oversized length prefix, splits it at arbitrary points — byte at a time
and the whole stream in one chunk included — and checks that the handler
sees the same calls, and the client the same replies and error frames, as
when each frame arrives on its own.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.protocol import MAX_FRAME_BYTES, FrameServer, encode_frame

from raw_frames import connected

#: bodies that are framed correctly but are not a JSON object
NOT_JSON = [b"abc", b"\xff\xfe{", b"[1]", b""]


def serve(chunks):
    """Feed ``chunks`` to a fresh server; returns (handled, written, closed)."""
    handled = []

    def handle(frame, body):
        handled.append((frame, body))
        return {"ok": True, "n": frame["n"]} if "rid" in frame else None

    server, transport = connected(FrameServer(handle))
    for chunk in chunks:
        if transport.is_closing():
            break
        server.data_received(chunk)
    return handled, transport.frames(), transport.closing


@st.composite
def streams(draw):
    """``(frames, tail)``: the encoded frames, and the bytes after them."""
    frames = []
    for n in range(draw(st.integers(min_value=0, max_value=12))):
        shape = draw(st.sampled_from(["cast", "request", "not-json"]))
        if shape == "cast":
            frames.append(encode_frame({"type": "msg", "n": n, "pad": "x" * draw(st.integers(0, 40))}))
        elif shape == "request":
            frames.append(encode_frame({"type": "store", "rid": n, "n": n}))
        else:
            body = draw(st.sampled_from(NOT_JSON))
            frames.append(len(body).to_bytes(4, "big") + body)
    tail = b""
    if draw(st.booleans()):
        length = draw(st.integers(min_value=MAX_FRAME_BYTES + 1, max_value=2**32 - 1))
        tail = length.to_bytes(4, "big") + draw(st.binary(max_size=8))
    return frames, tail


def split(data, cuts):
    points = sorted({cut % (len(data) + 1) for cut in cuts})
    return [data[start:end] for start, end in zip([0, *points], [*points, len(data)])]


@settings(max_examples=200, deadline=None)
@given(streams(), st.lists(st.integers(min_value=0), max_size=30), st.booleans())
@example(
    (
        [encode_frame({"type": "msg", "n": 0}), b"\x00\x00\x00\x03abc",
         encode_frame({"type": "store", "rid": 2, "n": 2})],
        (MAX_FRAME_BYTES + 1).to_bytes(4, "big"),
    ),
    [],
    True,
)
def test_any_split_gives_the_calls_and_frames_of_whole_frames(stream, cuts, bytewise):
    frames, tail = stream
    whole = serve([*frames, tail] if tail else frames)
    data = b"".join(frames) + tail
    chunks = [data[i : i + 1] for i in range(len(data))] if bytewise else split(data, cuts)
    assert serve(chunks) == whole
    assert serve([data]) == whole

    handled, written, closed = whole
    requests = [frame for frame, _ in handled if "rid" in frame]
    replies = [frame for frame in written if frame["type"] == "reply"]
    errors = [frame for frame in written if frame["type"] == "error"]
    assert [reply["rid"] for reply in replies] == [frame["rid"] for frame in requests]
    not_json = sum(frame[4:] in NOT_JSON for frame in frames)
    assert [error.get("fatal", False) for error in errors] == [False] * not_json + [True] * bool(tail)
    assert closed == bool(tail)
