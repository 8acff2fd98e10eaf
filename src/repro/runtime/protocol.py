"""Wire protocol: length-prefixed JSON frames and the message mapping.

Every byte that crosses a runtime socket — peer to peer and client to
gateway alike — is a **frame**: a 4-byte big-endian payload length followed
by that many bytes of UTF-8 JSON holding one object.  There is one body
encoding and nothing to negotiate about it.  Two things can be wrong with
incoming bytes, and they differ in what the receiver can do next:

* a length prefix above :data:`MAX_FRAME_BYTES` (:class:`ProtocolError`) —
  the stream cannot be resynchronised, the connection ends;
* a well-framed body that is not a JSON object (:class:`FrameBodyError`) —
  the next frame starts where this one ended, so the receiver may answer
  with an ``error`` frame and keep reading.

Frames carry either

* **casts** — fire-and-forget protocol traffic, today the ``"msg"`` frames
  that move PIRA/MIRA forwarding messages between peer nodes (the live
  analogue of :meth:`OverlayNetwork.send`), or
* **requests** — frames carrying an ``"rid"``; the receiving node replies
  with a ``"reply"`` frame echoing the rid (join/announce during bootstrap,
  ``store`` for object publication, ``ping``).

A gateway connection additionally opens with a ``hello``/``welcome``
exchange (:func:`hello_frame`, :func:`welcome_frame`) and reports failures
as :func:`error_frame` objects; :mod:`repro.runtime.gateway` documents that
dialogue.

The mapping between the simulator's :class:`~repro.sim.network.Message`
and its wire form is deliberately lossy in one direction only: the
``handler``/``on_drop`` metadata entries are *local callables* (sender-side
bookkeeping) and never cross the wire — the receiving node re-binds the
handler by message kind.  Everything the resumable executors need to resume
the query (FRT ``level``, ``branch`` index, logical ``send`` id, a detour's
``latency`` budget) does cross, so the receiving side's
:meth:`~repro.core.resumable.ResumableExecutor.handle_message` sees exactly
the metadata it would see on the simulator.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Any, Dict, Optional, Tuple

from repro.binframe import decode_binary, encode_binary
from repro.sim.network import Message

#: frames above this size are protocol errors (corrupt length prefix)
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: message-metadata keys that cross the wire (all JSON scalars).  The
#: ``trace``/``span`` pair is the distributed-tracing context: present only
#: on traced queries and simply absent (never an error) when tracing is
#: off or unsupported.
WIRE_METADATA_KEYS = ("level", "branch", "send", "latency", "trace", "span")

#: the gateway protocol version the handshake negotiates
GATEWAY_PROTOCOL_V2 = 2


def hello_frame(
    versions: tuple = (GATEWAY_PROTOCOL_V2,),
    client: str = "repro.api",
    tracing: bool = False,
) -> Dict[str, Any]:
    """The client's opening frame of a gateway connection.

    ``tracing`` asks the gateway to honour per-request ``trace`` options
    and attach span trees to replies.  The key is only present when
    requested, and either side not understanding it silently means "no
    tracing" — never an error.  The gateway ignores keys it does not know.
    """
    frame = {"type": "hello", "versions": list(versions), "client": client}
    if tracing:
        frame["tracing"] = True
    return frame


def welcome_frame(
    version: int = GATEWAY_PROTOCOL_V2,
    server: str = "armada-gateway",
    tracing: bool = False,
) -> Dict[str, Any]:
    """The gateway's handshake acceptance.

    ``tracing`` confirms the connection may request traced queries; an
    absent key means the gateway has no tracer (or predates tracing) and
    clients degrade to untraced replies.
    """
    frame = {
        "type": "welcome",
        "version": version,
        "server": server,
        "features": ["batch", "stream"],
    }
    if tracing:
        frame["tracing"] = True
    return frame


def error_frame(error: str, rid: Optional[int] = None, fatal: bool = False) -> Dict[str, Any]:
    """A structured v2 error frame.

    ``rid`` ties the error to one request (the connection survives);
    ``fatal=True`` marks connection-level failures (unparseable framing,
    handshake rejection) after which the sender closes — but the frame is
    always written first, so a client never sees a silent close.
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


#: the compact encoder, built once (``json.dumps(separators=...)`` builds one per call)
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One frame: 4-byte big-endian length + compact JSON."""
    body = _encode_json(payload).encode("utf-8")
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
            payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise FrameBodyError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameBodyError("frame payload must be a JSON object")
    return payload


async def read_frame_raw(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """Read one frame from ``reader`` as ``(frame, body_bytes)``.

    The undecoded body rides along for consumers that want to *retain*
    the frame cheaply — the flight recorder keeps the bytes (GC-inert)
    instead of the decoded object graph and re-decodes only at dump time.
    ``None`` on clean EOF.
    """
    try:
        prefix = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    length = int.from_bytes(prefix, "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the {MAX_FRAME_BYTES} limit")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    return decode_frame(body), body


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame from ``reader``; ``None`` on clean EOF."""
    pair = await read_frame_raw(reader)
    return None if pair is None else pair[0]


def message_to_wire(message: Message) -> Dict[str, Any]:
    """The ``"msg"`` cast frame for one forwarding message."""
    meta = {
        key: message.metadata[key]
        for key in WIRE_METADATA_KEYS
        if message.metadata.get(key) is not None
    }
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

    The local-only metadata (``handler``/``on_drop``) is gone by design;
    the dispatching node routes by ``kind`` instead.
    """
    return Message(
        sender=frame["sender"],
        receiver=frame["receiver"],
        kind=frame["kind"],
        hop=int(frame["hop"]),
        query_id=frame["query_id"],
        metadata=dict(frame.get("meta", {})),
    )


class RpcChannel:
    """A persistent request/response connection to one peer node.

    Requests are frames stamped with a fresh ``rid``; a background reader
    task resolves the matching future when the ``reply`` frame arrives, so
    several requests can be in flight on one connection.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._rids = itertools.count(1)
        self._reader_task: Optional[asyncio.Task] = None

    async def connect(self) -> "RpcChannel":
        """Open the connection and start the reply reader."""
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        self._reader_task = asyncio.get_running_loop().create_task(self._read_replies())
        return self

    async def _read_replies(self) -> None:
        assert self._reader is not None
        while True:
            try:
                frame = await read_frame(self._reader)
            except (ProtocolError, OSError):
                frame = None
            if frame is None:
                break
            future = self._pending.pop(frame.get("rid"), None)
            if future is not None and not future.done():
                future.set_result(frame)
        self._fail_pending(ConnectionError(f"rpc channel to {self.host}:{self.port} closed"))

    def _fail_pending(self, error: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def request(self, frame: Dict[str, Any], timeout: Optional[float] = 10.0) -> Dict[str, Any]:
        """Send ``frame`` (stamped with a fresh rid) and await its reply."""
        if self._writer is None:
            raise ProtocolError("rpc channel is not connected")
        rid = next(self._rids)
        frame = dict(frame)
        frame["rid"] = rid
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        try:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()
            reply = await asyncio.wait_for(future, timeout)
        finally:
            # On timeout/cancellation the rid must not linger: a leak would
            # grow _pending forever and hand any late reply to a dead future.
            self._pending.pop(rid, None)
        if not reply.get("ok", False):
            raise ProtocolError(
                f"request {frame.get('type')!r} failed: {reply.get('error', 'unknown error')}"
            )
        return reply

    async def close(self) -> None:
        """Close the connection and cancel the reader."""
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
            self._writer = None
        self._fail_pending(ConnectionError("rpc channel closed"))
