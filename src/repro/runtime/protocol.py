"""Wire protocol: length-prefixed JSON frames, the message mapping, the socket.

Every byte that crosses a runtime socket — peer to peer and client to
gateway alike — is a **frame**: a 4-byte big-endian payload length followed
by that many bytes of UTF-8 JSON holding one object.  There is one body
encoding and nothing to negotiate about it.  Its codec is the stdlib's C
``json``, built once for the module: one compact encoder (the bytes of
``json.JSONEncoder(separators=(",", ":")).encode``, without building an
encoder per frame) and one scanner (``json.loads`` without its whitespace
regexes — a body the scanner does not consume exactly goes to
``json.loads`` itself, so whitespace, trailing data and every error read
as they always did).  Two things can be wrong with
incoming bytes, and they differ in what the receiver can do next:

* a length prefix above :data:`MAX_FRAME_BYTES` (:class:`ProtocolError`) —
  the stream cannot be resynchronised, the connection ends (after one
  ``fatal`` ``error`` frame saying why);
* a well-framed body that is not a JSON object (:class:`FrameBodyError`) —
  the next frame starts where this one ended, so the receiver answers
  with a non-fatal ``error`` frame and keeps reading.

Frames carry either

* **casts** — fire-and-forget protocol traffic: the ``"msg"`` frames that
  move PIRA/MIRA forwarding messages between peer nodes (the live analogue
  of :meth:`OverlayNetwork.send`) and the ``"gossip"`` control frames, or
* **requests** — frames carrying an ``"rid"``; the receiving node replies
  with a ``"reply"`` frame echoing the rid (``store`` for object
  publication, ``fetch`` for an exact read).

Both travel on the same socket, and that socket is one
:class:`asyncio.Protocol`, written once, here: :class:`FrameProtocol`
cuts frames out of the bytes as they arrive (``data_received``) and hands
each to its end synchronously, so a frame costs the event loop one wakeup
— no reader task, no stream.  :class:`Connection` is the client end,
:class:`FrameServer` the server end.  A request has one path,
:meth:`Connection.post_frame`: its ``then`` callback runs in the
``data_received`` call that cuts the reply (or with the error, when the
request's timer fires or the connection ends); a caller that awaits
passes :func:`settling` of a future.  Peer links
(:mod:`repro.runtime.transport`), gateway client connections
(:mod:`repro.api.live`) and the two listeners (peer node, gateway) are
all these two.

A gateway connection is the same connection: rid-tagged ``request``
frames answered by one ``reply`` frame each, plus the :func:`error_frame`
frames the gateway pushes; :mod:`repro.runtime.gateway`
documents that dialogue.

The mapping between the simulator's :class:`~repro.sim.network.Message`
and its wire form is deliberately lossy in one direction only: the
``handler``/``on_drop`` hooks are *local callables* (sender-side
bookkeeping) and never cross the wire — the receiving node re-binds the
handler by message kind — and neither does the executor's sender-side
state on its pending send.  Everything the resumable executors need to
resume the query (FRT ``level``, ``branch`` index, logical ``send`` id, a
detour's ``latency`` budget, the ``trace``/``span`` context) crosses in the
frame's ``meta`` object, each key left out when its field is ``None``, so
the receiving side's
:meth:`~repro.core.resumable.ResumableExecutor.handle_message` sees exactly
the fields it would see on the simulator.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import json.encoder
import json.scanner
import struct
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.binframe import decode_binary, encode_binary
from repro.sim.network import Message

#: frames above this size are protocol errors (corrupt length prefix)
MAX_FRAME_BYTES = 16 * 1024 * 1024


def error_frame(error: str, rid: Optional[int] = None, fatal: bool = False) -> Dict[str, Any]:
    """A structured error frame.

    ``rid`` ties the error to one request (the connection survives);
    ``fatal=True`` marks a connection-level failure (a stream that cannot
    be framed) after which the sender closes — but the frame is always
    written first, so a client never sees a silent close.
    """
    frame: Dict[str, Any] = {"type": "error", "ok": False, "error": error}
    if rid is not None:
        frame["rid"] = rid
    if fatal:
        frame["fatal"] = True
    return frame


class ProtocolError(RuntimeError):
    """Raised on malformed frames or replies."""


class FrameBodyError(ProtocolError):
    """A well-framed body that does not decode to a JSON object.

    Distinct from :class:`ProtocolError` because it is *recoverable*: the
    4-byte length framing is intact, so the receiver can answer with a
    structured (non-fatal) error frame and keep reading the stream.
    """


#: the compact encoder, built once: what ``json.JSONEncoder(separators=(",",
#: ":")).encode`` runs, without building a C encoder on every call.  The
#: arguments: circular-reference markers (shared, so a failed encode clears
#: them), the stdlib ``default`` (a ``TypeError``), ASCII string escaping, no
#: indent, the key and item separators, sort_keys, skipkeys, allow_nan.
_markers: Dict[int, Any] = {}
_encode_json = json.encoder.c_make_encoder(
    _markers, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", False, False, True,
)  # fmt: skip

#: the decoder's scanner, built once: ``json.loads`` without its two
#: whitespace regexes (a body it does not consume exactly goes to
#: ``json.loads`` itself, so whitespace and errors read as they always did)
_scan_json = json.scanner.c_make_scanner(json.JSONDecoder())


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One frame: 4-byte big-endian length + compact JSON."""
    try:
        body = "".join(_encode_json(payload, 0)).encode("utf-8")
    except BaseException:
        _markers.clear()
        raise
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} limit")
    return len(body).to_bytes(4, "big") + body


def encode_frame_binary(payload: Dict[str, Any]) -> bytes:
    # Called by nothing in src/: kept (with ``allow_binary`` below) only for
    # bench/layers.py's codec.binary_vs_json_ratio reference comparison.
    body = encode_binary(payload)
    return len(body).to_bytes(4, "big") + body


def decode_frame(body: bytes, allow_binary: bool = False) -> Dict[str, Any]:
    """Decode a frame payload (the bytes after the length prefix).

    Any body that is not one UTF-8 JSON object raises
    :class:`FrameBodyError` — the framing survived, so the caller can
    reply with a structured error instead of dropping the connection.
    """
    try:
        if allow_binary and body[:1] == b"\xc1":
            payload = decode_binary(body)
        else:
            text = body.decode("utf-8")
            try:
                payload, end = _scan_json(text, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(text):
                payload = json.loads(text)
    except ValueError as exc:
        raise FrameBodyError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameBodyError("frame payload must be a JSON object")
    return payload


def message_to_wire(message: Message) -> Dict[str, Any]:
    """The ``"msg"`` cast frame for one forwarding message.

    ``meta`` holds the message's scalar fields in a fixed order, each left
    out when ``None``: the ``trace``/``span`` pair, the distributed-tracing
    context, is present only on traced queries and simply absent (never an
    error) when tracing is off or unsupported.
    """
    meta: Dict[str, Any] = {}
    if message.level is not None:
        meta["level"] = message.level
    if message.branch is not None:
        meta["branch"] = message.branch
    if message.send is not None:
        meta["send"] = message.send
    if message.latency is not None:
        meta["latency"] = message.latency
    if message.trace is not None:
        meta["trace"] = message.trace
    if message.span is not None:
        meta["span"] = message.span
    return {
        "type": "msg",
        "kind": message.kind,
        "sender": message.sender,
        "receiver": message.receiver,
        "hop": message.hop,
        "query_id": message.query_id,
        "meta": meta,
    }


def wire_to_message(frame: Dict[str, Any]) -> Message:
    """Rebuild the :class:`Message` a ``"msg"`` frame carries.

    The local-only hooks (``handler``/``on_drop``) are gone by design;
    the dispatching node routes by ``kind`` instead.
    """
    meta = frame.get("meta", {})
    return Message(
        sender=frame["sender"],
        receiver=frame["receiver"],
        kind=frame["kind"],
        hop=int(frame["hop"]),
        query_id=frame["query_id"],
        level=meta.get("level"),
        branch=meta.get("branch"),
        send=meta.get("send"),
        latency=meta.get("latency"),
        trace=meta.get("trace"),
        span=meta.get("span"),
    )




class Hangup(Exception):
    """Raised by a frame handler to end its connection.

    ``last_frame``, if given, is written as it is before the close — a
    ``fatal`` error frame, the reply to a ``quit``.
    """

    def __init__(self, last_frame: Optional[Dict[str, Any]] = None) -> None:
        super().__init__()
        self.last_frame = last_frame


def failure_payload(exc: Exception) -> Dict[str, Any]:
    """The reply payload that surfaces a handler failure to the caller."""
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


#: the 4-byte big-endian length prefix
_LENGTH = struct.Struct(">I")


class FrameProtocol(asyncio.Protocol):
    """The framing of one socket, either end.

    ``data_received`` appends to one buffer, then cuts every complete
    frame out of it and hands each body to :meth:`_received` — in the loop
    iteration that read the bytes, with no task or future in between.  The
    buffer is trimmed once per call.  Nothing is cut while the end has
    paused reading (``_paused``) or the transport is closing; a length
    prefix above :data:`MAX_FRAME_BYTES` goes to :meth:`_unframeable`.
    """

    _paused = False

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self._buffer = bytearray()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._cut()

    def _cut(self) -> None:
        buffer = self._buffer
        size, start = len(buffer), 0
        while size - start >= 4 and not self._paused and not self.transport.is_closing():
            (length,) = _LENGTH.unpack_from(buffer, start)
            if length > MAX_FRAME_BYTES:
                limit = f"frame length {length} exceeds the {MAX_FRAME_BYTES} limit"
                self._unframeable(ProtocolError(limit))
                return
            end = start + 4 + length
            if end > size:
                break
            body = bytes(buffer[start + 4 : end])
            start = end
            self._received(body)
        del buffer[:start]


class FrameServer(FrameProtocol):
    """The server end of one framed connection, from accept to close.

    Every frame goes to ``handle(frame, body)`` (``body`` is the undecoded
    payload, for the flight recorder).  What it returns is the payload of
    the ``reply`` frame echoing the frame's ``rid`` — or ``None`` when
    there is nothing to answer (a cast) or the handler answers later
    itself (the gateway's multiplexed requests).  An exception out of the
    handler of a frame that carries a rid is answered the same way, as
    :func:`failure_payload`; :class:`Hangup` ends the connection.

    Bad input has one rule on every server: a well-framed body that is not
    a JSON object gets a non-fatal ``error`` frame and the connection keeps
    serving; a stream that cannot be framed gets a ``fatal`` one, then the
    close.  ``write`` replaces the plain encode-and-write of the frames
    this end sends (the gateway counts its frames); ``connections``, if
    given, holds the transport while the connection is open.

    While the socket's send buffer is above its high-water mark
    (``pause_writing``) the connection reads nothing: a client that does
    not read its replies is not served more requests.
    """

    def __init__(
        self,
        handle: Callable[[Dict[str, Any], bytes], Optional[Dict[str, Any]]],
        write: Optional[Callable[[Dict[str, Any]], Any]] = None,
        connections: Optional[Set[Any]] = None,
    ) -> None:
        self._handle = handle
        self._write = write or (lambda frame: self.transport.write(encode_frame(frame)))
        self._connections = connections

    def connection_made(self, transport: Any) -> None:
        super().connection_made(transport)
        if self._connections is not None:
            self._connections.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._connections is not None:
            self._connections.discard(self.transport)

    def _received(self, body: bytes) -> None:
        try:
            frame = decode_frame(body)
        except FrameBodyError as exc:
            # The length framing is intact, so the stream resynchronises
            # on the next frame — error the offender, keep serving.
            self._write(error_frame(str(exc)))
            return
        try:
            payload = self._handle(frame, body)
        except Hangup as bye:
            if bye.last_frame is not None:
                self._write(bye.last_frame)
            self.transport.close()
            return
        except Exception as exc:
            if frame.get("rid") is None:
                raise
            payload = failure_payload(exc)
        if payload is not None:
            self._write({"type": "reply", "rid": frame.get("rid"), **payload})

    def _unframeable(self, exc: ProtocolError) -> None:
        # An oversized/corrupt length cannot be resynchronised — but the
        # client is told why before the close, never silence.
        self._write(error_frame(str(exc), fatal=True))
        self.transport.close()

    def pause_writing(self) -> None:
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        if not self.transport.is_closing():
            self.transport.resume_reading()
            self._cut()


#: a continuation: ``then(result, None)`` — for a request, its ``reply``
#: frame — or ``then(None, error)`` when there is no result to give
Then = Callable[[Any, Optional[Exception]], None]


def settling(future: asyncio.Future) -> Then:
    """The ``then`` that resolves ``future`` with the reply frame or fails
    it with the error; a future that is already done is left alone."""

    def then(reply: Optional[Dict[str, Any]], error: Optional[Exception]) -> None:
        if future.done():
            return
        if error is None:
            future.set_result(reply)
        else:
            future.set_exception(error)

    return then


class Connection(FrameProtocol):
    """The client end of one framed TCP connection.

    One socket carries both kinds of traffic: :meth:`write` buffers an
    already-encoded cast, :meth:`post_frame` stamps a frame with a fresh
    ``rid`` and registers the ``then`` its ``reply`` frame runs.  ``then``
    runs in the ``data_received`` call that cuts that reply — no future, no
    task, no extra loop iteration — so any number of requests may be in
    flight and complete out of order.  Every other frame goes to
    :meth:`_on_frame`.

    A ``reply`` is handed over as a value whatever its ``ok`` field says;
    only a transport failure is an error: the request's own timer
    (``TimeoutError``), or whatever ends the connection — peer EOF, a lost
    socket, an unframeable stream or body, an exception out of
    ``_on_frame`` or out of a ``then``, :meth:`close` — which fails every
    pending request at once, so none sits out its timeout against a socket
    that can never answer.
    """

    #: True once the connection has ended or :meth:`close` was called
    closed = False

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        #: rid -> (then, timer) of every request awaiting its reply
        self._pending: Dict[int, Tuple[Then, Optional[asyncio.TimerHandle]]] = {}
        self._rids = itertools.count(1)
        #: resolved by connection_lost (what :meth:`close` waits for)
        self._lost = self._loop.create_future()
        #: set while the send buffer is above its high-water mark
        self._resumed: Optional[asyncio.Future] = None

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        """Dial ``host:port``."""
        _, connection = await asyncio.get_running_loop().create_connection(cls, host, port)
        return connection

    @property
    def in_flight(self) -> int:
        """Requests awaiting their reply frame on this connection."""
        return len(self._pending)

    # -- sending -------------------------------------------------------------

    def write(self, data: bytes) -> None:
        """Buffer one encoded frame that expects no answer (a cast)."""
        self.transport.write(data)

    async def drain(self) -> None:
        """Return once the send buffer is below its high-water mark — at
        once when it is, and when the connection ends (the pending requests
        carry that failure)."""
        if self._resumed is not None:
            await asyncio.shield(self._resumed)

    def pause_writing(self) -> None:
        self._resumed = self._loop.create_future()

    def resume_writing(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None:
            resumed.set_result(None)

    def post_frame(self, frame: Dict[str, Any], then: Then, timeout: Optional[float] = 10.0) -> int:
        """Stamp ``frame`` (in place) with a fresh ``rid``, register ``then``
        for its reply and buffer the frame — straight onto the socket, one
        ``encode_frame`` and one ``write``; returns the rid.

        ``then`` runs exactly once, unless the rid is :meth:`forget`-ten
        first.  ``timeout`` seconds without a reply run it with a
        ``TimeoutError`` (``None``: no timer, the caller bounds its own
        wait).  The caller owns flushing (:meth:`drain`)."""
        if self.closed:
            raise ConnectionError("connection is closed")
        rid = frame["rid"] = next(self._rids)
        # Encoded before anything is registered: a frame that cannot be
        # encoded raises here and leaves no timer to run ``then`` later.
        data = encode_frame(frame)
        timer = None if timeout is None else self._loop.call_later(timeout, self._expire, rid, timeout)
        self._pending[rid] = (then, timer)
        self.transport.write(data)
        return rid

    def forget(self, rid: Any) -> Optional[Then]:
        """Drop ``rid`` from the requests in flight once its caller has
        stopped waiting (timeout, cancellation): a lingering rid would grow
        ``_pending`` forever and count as load.  A late reply for it is
        ignored.  Returns its ``then`` (``None`` if it was not pending)."""
        entry = self._pending.pop(rid, None)
        if entry is None:
            return None
        then, timer = entry
        if timer is not None:
            timer.cancel()
        return then

    def _settle(self, rid: Any, reply: Optional[Dict[str, Any]], error: Optional[Exception]) -> None:
        """Run the ``then`` of ``rid`` once, if it is still pending."""
        then = self.forget(rid)
        if then is not None:
            then(reply, error)

    def _expire(self, rid: int, timeout: float) -> None:
        self._settle(rid, None, TimeoutError(f"no reply to request {rid} within {timeout} s"))

    # -- receiving -------------------------------------------------------------

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        """Every incoming frame that is not a ``reply``.  A node sends
        nothing else, and unknown frames are ignored for forward
        compatibility; raising ends the connection with that error."""

    def _received(self, body: bytes) -> None:
        try:
            frame = decode_frame(body)
            if frame.get("type") == "reply":
                self._settle(frame.get("rid"), frame, None)
            else:
                self._on_frame(frame)
        except Exception as exc:
            self._end(exc)

    def _unframeable(self, exc: ProtocolError) -> None:
        self._end(exc)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._end(ConnectionError(str(exc)) if exc is not None else None)
        self.resume_writing()
        self._lost.set_result(None)

    def _end(self, failure: Optional[Exception] = None) -> None:
        """The connection is over, whatever ended it: release the socket,
        fail what is pending with the first cause."""
        if self.closed:
            return
        self.closed = True
        self.transport.close()
        if failure is None:
            failure = ConnectionError("connection closed with requests in flight")
        pending, self._pending = self._pending, {}
        for then, timer in pending.values():
            if timer is not None:
                timer.cancel()
            then(None, failure)

    async def close(self) -> None:
        """Fail what is pending, close the socket and wait until it is
        closed; idempotent."""
        self._end()
        await self._lost
