"""Test helpers for the frame path: raw streams and a fake transport.

The runtime never reads a stream: each of its sockets is a
:class:`repro.runtime.protocol.FrameProtocol` that cuts frames in
``data_received``.  A test that scripts a server or a client with
``asyncio.start_server`` / ``asyncio.open_connection`` reads the frames it
is sent with :func:`read_frame`; a test that drives a protocol without a
socket hands it a :class:`FakeTransport`.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.protocol import MAX_FRAME_BYTES, ProtocolError, decode_frame


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame from ``reader``; ``None`` on EOF, also mid-frame.

    A length above :data:`MAX_FRAME_BYTES` raises :class:`ProtocolError`,
    a body that is not a JSON object :class:`FrameBodyError`.
    """
    try:
        prefix = await reader.readexactly(4)
        length = int.from_bytes(prefix, "big")
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} exceeds the {MAX_FRAME_BYTES} limit")
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    return decode_frame(body)


class FakeTransport:
    """What the protocols use of an asyncio transport, recorded."""

    def __init__(self) -> None:
        self.written: List[bytes] = []
        self.reading = True
        self.closing = False

    def write(self, data: bytes) -> None:
        self.written.append(bytes(data))

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def frames(self) -> List[Dict[str, Any]]:
        """Every frame written so far, decoded."""
        return [decode_frame(data[4:]) for data in self.written]


def connected(protocol: Any) -> Tuple[Any, FakeTransport]:
    """``protocol``, made on a fresh :class:`FakeTransport`, and that transport."""
    transport = FakeTransport()
    protocol.connection_made(transport)
    return protocol, transport
