"""Wire protocol: length-prefixed JSON frames and the message mapping.

Every byte that crosses a runtime socket is a **frame**: a 4-byte
big-endian payload length followed by that many bytes of UTF-8 JSON.
Frames carry either

* **casts** — fire-and-forget protocol traffic, today the ``"msg"`` frames
  that move PIRA/MIRA forwarding messages between peer nodes (the live
  analogue of :meth:`OverlayNetwork.send`), or
* **requests** — frames carrying an ``"rid"``; the receiving node replies
  with a ``"reply"`` frame echoing the rid (join/announce during bootstrap,
  ``store`` for object publication, ``ping``).

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

from repro.runtime.binframe import (
    BINARY_MAGIC,
    BinaryCodecError,
    decode_binary,
    encode_binary,
)
from repro.sim.network import Message

#: frames above this size are protocol errors (corrupt length prefix)
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: frame-body encodings a v2 connection can negotiate.  ``"json"`` is the
#: default (and the only encoding old clients know); ``"binary"`` switches
#: the high-volume frames (``request``/``reply``/``chunk``/``batch``) to
#: the compact codec in :mod:`repro.runtime.binframe`.  Control frames
#: (``hello``/``welcome``/``error``/``quit``) are *always* JSON so the
#: handshake and every failure stay debuggable with a hex dump.
ENCODING_JSON = "json"
ENCODING_BINARY = "binary"
SUPPORTED_ENCODINGS = (ENCODING_JSON, ENCODING_BINARY)

#: message-metadata keys that cross the wire (all JSON scalars).  The
#: ``trace``/``span`` pair is the distributed-tracing context: present only
#: on traced queries, carried identically by the JSON and binary codecs,
#: and simply absent (never an error) when tracing is off or unsupported.
WIRE_METADATA_KEYS = ("level", "branch", "send", "latency", "trace", "span")

#: gateway protocol versions this codebase speaks.  v1 is the legacy
#: newline-terminated line protocol (one strictly-ordered reply per
#: command — deprecated, kept behind the handshake fallback); v2 is the
#: multiplexed frame protocol below.
GATEWAY_PROTOCOL_VERSIONS = (1, 2)

#: the version a v2 handshake negotiates today
GATEWAY_PROTOCOL_V2 = 2

#: contexts that already warned about protocol v1 (one warning per context
#: per process: a soak over v1 must not emit one line per connection)
_V1_WARNED: set = set()


def warn_v1_once(context: str) -> bool:
    """Emit the one-time protocol-v1 deprecation warning for ``context``.

    v1 (the newline-terminated line protocol) has been documented as
    deprecated since PR 3 but never said so at runtime.  Both accept paths
    — a v1 connection reaching the gateway, a :class:`RuntimeClient` being
    constructed — call this: one ``DeprecationWarning`` plus one
    ``repro.runtime`` log line per context per process, so operators see
    it in both the warnings machinery and the structured log stream.
    Returns True when this call actually warned.
    """
    if context in _V1_WARNED:
        return False
    _V1_WARNED.add(context)
    import warnings

    from repro.obs.logs import get_logger

    warnings.warn(
        f"gateway protocol v1 ({context}) is deprecated; "
        "use protocol v2 via repro.api.LiveSession",
        DeprecationWarning,
        stacklevel=3,
    )
    get_logger("runtime").warning(
        "protocol v1 is deprecated (context=%s); use protocol v2 via "
        "repro.api.LiveSession",
        context,
    )
    return True


def hello_frame(
    versions: tuple = (GATEWAY_PROTOCOL_V2,),
    client: str = "repro.api",
    encoding: str = ENCODING_JSON,
    tracing: bool = False,
) -> Dict[str, Any]:
    """The client's opening frame of a v2 gateway connection.

    Because every frame starts with a 4-byte big-endian length and
    ``MAX_FRAME_BYTES`` < 2**24, the first byte on the wire is always
    ``0x00`` — which no v1 text command can start with.  That single byte
    is the whole version negotiation: the gateway peeks it and routes the
    connection to the framed v2 loop or the legacy v1 line loop.

    ``encoding`` asks the gateway to carry the high-volume frames in that
    body encoding.  Old clients (which never send the key) and old
    gateways (which ignore it) both degrade to JSON, so the negotiation
    is backwards- and forwards-compatible.

    ``tracing`` asks the gateway to honour per-request ``trace`` options
    and attach span trees to replies.  Same degradation contract as
    ``encoding``: the key is only present when requested, and either side
    not understanding it silently means "no tracing" — never an error.
    """
    frame = {"type": "hello", "versions": list(versions), "client": client}
    if encoding != ENCODING_JSON:
        frame["encoding"] = encoding
    if tracing:
        frame["tracing"] = True
    return frame


def welcome_frame(
    version: int = GATEWAY_PROTOCOL_V2,
    server: str = "armada-gateway",
    encoding: str = ENCODING_JSON,
    tracing: bool = False,
) -> Dict[str, Any]:
    """The gateway's handshake acceptance.

    ``encoding`` echoes what the gateway actually negotiated; clients
    treat an absent key as ``"json"`` (pre-binary gateways never send it).
    ``tracing`` confirms the connection may request traced queries; an
    absent key means the gateway has no tracer (or predates tracing) and
    clients degrade to untraced replies.
    """
    frame = {
        "type": "welcome",
        "version": version,
        "server": server,
        "features": ["batch", "stream"],
        "encoding": encoding,
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


class EncodingError(ProtocolError):
    """A well-framed body in an encoding this connection did not negotiate.

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
    """One frame with a binary body: 4-byte big-endian length + 0xC1 + value.

    Shares the length framing (and the size limit) with JSON frames; only
    the body bytes differ, so a connection can interleave both encodings.
    """
    body = encode_binary(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} limit")
    return len(body).to_bytes(4, "big") + body


def decode_frame(body: bytes, allow_binary: bool = False) -> Dict[str, Any]:
    """Decode a frame payload (the bytes after the length prefix).

    Binary bodies are self-identifying (leading ``0xC1``; JSON objects
    start with ``{``).  A binary body arriving where ``allow_binary`` is
    False raises :class:`EncodingError` — the framing survived, so the
    caller can reply with a structured error instead of dropping the
    connection.
    """
    if body and body[0] == BINARY_MAGIC:
        if not allow_binary:
            raise EncodingError(
                "binary frame on a connection that negotiated JSON encoding"
            )
        try:
            payload = decode_binary(body)
        except BinaryCodecError as exc:
            raise ProtocolError(f"malformed binary frame: {exc}") from exc
    else:
        payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


async def read_frame_raw(
    reader: asyncio.StreamReader, allow_binary: bool = False
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
    return decode_frame(body, allow_binary=allow_binary), body


async def read_frame(
    reader: asyncio.StreamReader, allow_binary: bool = False
) -> Optional[Dict[str, Any]]:
    """Read one frame from ``reader``; ``None`` on clean EOF."""
    pair = await read_frame_raw(reader, allow_binary=allow_binary)
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
