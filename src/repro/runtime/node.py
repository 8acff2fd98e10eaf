"""A peer node: one asyncio TCP server hosting FISSIONE peers.

A :class:`PeerNode` owns a listening socket and no peer state: which
PeerIDs it hosts is recorded once, in the cluster's tenancy map
(``LiveCluster.homes``), and its peers' stores are the peers' own backends,
which the cluster closes.  It is deliberately thin: frames arriving on its
socket are either **casts** (query forwarding messages — dispatched
synchronously into the cluster's shared handlers, the way the simulated
overlay delivers into ``handle_message`` — and gossip control frames) or
**requests** (join / announce / store / fetch / ping — answered with a
``reply`` frame).  Both arrive on one connection per sender, read by the
runtime's one server loop (:func:`~repro.runtime.protocol.serve_connection`);
the node only sorts each frame (:meth:`PeerNode._on_frame`).  All protocol
logic lives in the cluster; the node is the network endpoint.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional

from repro.runtime.protocol import serve_connection

#: request handler: frame in, reply payload out (without the rid)
RequestHandler = Callable[[Dict[str, Any]], Dict[str, Any]]
#: sync cast handler: fire-and-forget frame in, nothing out
CastHandler = Callable[[Dict[str, Any]], None]


class PeerNode:
    """One TCP server endpoint hosting one or more peers."""

    def __init__(
        self,
        name: str,
        host: str,
        on_cast: CastHandler,
        on_request: RequestHandler,
    ) -> None:
        self.name = name
        self.host = host
        self.port: Optional[int] = None
        self._on_cast = on_cast
        self._on_request = on_request
        self._server: Optional[asyncio.base_events.Server] = None
        self.frames_received = 0
        #: optional gossip control-plane handler, called as
        #: ``on_gossip(node, frame)`` — the handler needs to know *which*
        #: endpoint a frame arrived at, because each node holds its own
        #: membership view (unlike query casts, whose dispatch is shared)
        self.on_gossip: Optional[Callable[["PeerNode", Dict[str, Any]], None]] = None
        #: optional flight recorder (set by the cluster's attach_recorder)
        self.recorder: Optional[Any] = None

    @property
    def address(self):
        """The ``(host, port)`` this node listens on (after :meth:`start`)."""
        if self.port is None:
            raise RuntimeError(f"node {self.name!r} has not been started")
        return (self.host, self.port)

    async def start(self) -> "PeerNode":
        """Bind an ephemeral port and start serving frames."""
        self._server = await asyncio.start_server(
            lambda reader, writer: serve_connection(reader, writer, self._on_frame),
            self.host,
            0,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def _on_frame(self, frame: Dict[str, Any], body: bytes) -> Optional[Dict[str, Any]]:
        """One incoming frame: a request's reply payload, ``None`` for a cast."""
        self.frames_received += 1
        rid = frame.get("rid")
        if rid is not None:
            if self.recorder is not None:
                self.recorder.record(
                    "frame",
                    node=self.name,
                    frame_type=frame.get("type"),
                    kind=frame.get("kind"),
                    rid=rid,
                )
            return self._on_request(frame)
        if frame.get("type") == "gossip":
            # Control plane: membership gossip is per-endpoint state,
            # handled outside the shared cast dispatch (and outside the
            # flight-recorder deliver tap — the replay engine re-executes
            # the data plane only; membership transitions are recorded as
            # their own ``gossip`` events by the cluster).
            if self.on_gossip is not None:
                self.on_gossip(self, frame)
            return None
        if self.recorder is not None and frame.get("type") == "msg":
            # Recorded before the handler runs: the delivery's sequence
            # number must precede the sends it fans out, because the global
            # seq order is the interleaving the replay engine re-executes.
            # The ring keeps the *wire bytes* — retaining the decoded
            # frame's object graph would grow every GC pass for the rest of
            # the run; events() re-decodes at dump time.
            self.recorder.record("deliver", node=self.name, raw=body)
        self._on_cast(frame)
        return None

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def __repr__(self) -> str:
        return f"PeerNode(name={self.name!r}, port={self.port})"
