"""A peer node: one asyncio TCP server hosting FISSIONE peers.

A :class:`PeerNode` owns a listening socket and no peer state: which
PeerIDs it hosts is recorded once, in the cluster's tenancy map
(``LiveCluster.homes``), and its peers' stores are the peers' own backends,
which the cluster closes.  It is deliberately thin: every frame that
arrives on its socket — cut by the runtime's one server end
(:class:`~repro.runtime.protocol.FrameServer`), one connection per
sender, in the loop iteration that read it — is counted and handed to
its one handler, which sorts casts (query forwarding ``msg`` frames,
``gossip`` control frames) from requests (``store`` / ``fetch``, answered
with a ``reply`` frame).  All protocol logic lives in the cluster; the
node is the network endpoint.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional

from repro.runtime.protocol import FrameServer

#: the frame handler: ``on_frame(node, frame, body)`` returns a request's
#: reply payload (without the rid), ``None`` for a cast
FrameHandler = Callable[["PeerNode", Dict[str, Any], bytes], Optional[Dict[str, Any]]]


class PeerNode:
    """One TCP server endpoint hosting one or more peers."""

    def __init__(self, name: str, host: str, on_frame: FrameHandler) -> None:
        self.name = name
        self.host = host
        self.port: Optional[int] = None
        self._on_frame = on_frame
        self._server: Optional[asyncio.base_events.Server] = None
        self.frames_received = 0

    @property
    def address(self):
        """The ``(host, port)`` this node listens on (after :meth:`start`)."""
        if self.port is None:
            raise RuntimeError(f"node {self.name!r} has not been started")
        return (self.host, self.port)

    async def start(self) -> "PeerNode":
        """Bind an ephemeral port and start serving frames."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: FrameServer(self._receive), self.host, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def _receive(self, frame: Dict[str, Any], body: bytes) -> Optional[Dict[str, Any]]:
        self.frames_received += 1
        return self._on_frame(self, frame, body)

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def __repr__(self) -> str:
        return f"PeerNode(name={self.name!r}, port={self.port})"
