"""The live :class:`~repro.core.transport.Transport`: asyncio TCP links.

:class:`AsyncioTransport` is the runtime's counterpart of the simulator's
:class:`~repro.sim.network.OverlayNetwork`.  Where the overlay delivers a
message by scheduling an event, this transport

* resolves the receiver PeerID to the **address** of the node hosting it
  (the address book is the cluster's tenancy map: a peer is routed when
  the cluster places it on a node, and only then),
* frames the message as length-prefixed JSON
  (:func:`~repro.runtime.protocol.message_to_wire`), and
* writes it on the per-node **link** — the one long-lived TCP connection
  to the destination node (a :class:`~repro.runtime.protocol.Connection`,
  dialled lazily; frames are buffered until it is up), so the executor's
  synchronous ``send()`` never blocks the event loop.  The same socket
  carries the gossip plane's control frames (:meth:`~AsyncioTransport.send_frame`)
  and the cluster's node requests (:meth:`~AsyncioTransport.post`), each
  answered through a callback as its reply is read.

Clock and timers come from the running asyncio loop (``loop.time()`` /
``loop.call_later``), so the per-hop resilience timers and query deadlines
of the core executors work unchanged — in seconds instead of simulated
units.

A send whose receiver has no route, or whose link is refused, degrades into a
**drop**: the message's local ``on_drop`` callback fires, exactly the
signal the executors already understand from the simulated overlay.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.runtime.protocol import Connection, Then, encode_frame, message_to_wire
from repro.sim.network import Message

Address = Tuple[str, int]


class _Request:
    """A request posted on a link: the frame and its continuation."""

    __slots__ = ("frame", "then")

    def __init__(self, frame: Dict[str, Any], then: Then) -> None:
        self.frame = frame
        self.then = then


class _Link:
    """The one TCP connection from this process to a peer node.

    Casts and requests share it (a :class:`~repro.runtime.protocol.Connection`).
    What the link adds is its own: the connection is dialled lazily, on
    first use (the link's one task); whatever is enqueued before the dial
    completes is buffered and flushed in order the moment it does; and a
    dial that fails with ``OSError`` drops every buffered item.  Only
    executor :class:`Message` objects get drop callbacks, and only requests
    get an error (their ``then`` runs with a :class:`ConnectionError`) — a
    lost control frame (pre-encoded ``bytes`` from the gossip plane) needs
    no notification, because for the gossip protocol the loss itself *is*
    the signal.
    """

    def __init__(self, address: Address, on_drop: Callable[[Message], None]) -> None:
        self.address = address
        self._on_drop = on_drop
        self._connection: Optional[Connection] = None
        self._dial: Optional[asyncio.Task] = None
        self._backlog: List[Any] = []
        self._refused = False

    @property
    def broken(self) -> bool:
        """True once the dial failed or the connection ended: everything
        enqueued from now on is undeliverable (the transport dials anew)."""
        return self._refused or (self._connection is not None and self._connection.closed)

    def enqueue(self, item: Any) -> None:
        """Write one message, raw frame or request — or buffer it while
        dialling."""
        if self.broken:
            self._discard(item)
        elif self._connection is not None:
            self._write(item)
        else:
            self._backlog.append(item)
            if self._dial is None:
                self._dial = asyncio.get_running_loop().create_task(self._open())

    def post(self, frame: Dict[str, Any], then: Then) -> None:
        """Send one request on the link's socket; ``then`` gets its reply
        frame, or a :class:`ConnectionError` when the node cannot be
        reached (see :meth:`Connection.post_frame`)."""
        self.enqueue(_Request(frame, then))

    async def _open(self) -> None:
        try:
            self._connection = await Connection.open(*self.address)
        except OSError:
            # Connection refused: everything buffered (and everything
            # enqueued from now on) is undeliverable — report every
            # message as a drop.
            self._refused = True
        backlog, self._backlog = self._backlog, []
        for item in backlog:
            self.enqueue(item)

    def _write(self, item: Any) -> None:
        if isinstance(item, Message):
            item = encode_frame(message_to_wire(item))
        elif isinstance(item, _Request):
            self._connection.post_frame(item.frame, item.then)
            return
        self._connection.write(item)

    def _discard(self, item: Any) -> None:
        if isinstance(item, Message):
            self._on_drop(item)
        elif isinstance(item, _Request):
            host, port = self.address
            item.then(None, ConnectionError(f"no connection to the node at {host}:{port}"))

    async def close(self) -> None:
        """Let a dial in progress finish (it flushes the backlog), then close."""
        if self._dial is not None:
            try:
                await asyncio.wait_for(self._dial, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                pass
        if self._connection is not None:
            await self._connection.close()


class AsyncioTransport:
    """Routes executor messages to peer nodes over real TCP sockets.

    The cluster binds PeerIDs to node addresses with :meth:`assign` as it
    places zones on nodes; the executors' membership refresh
    (:meth:`register`/:meth:`unregister`) then only ever *narrows* the
    reachable set — registration is address-book based, so a peer object
    alone (with no assigned address) is not reachable, mirroring a real
    deployment where knowing a peer exists is not knowing where it lives.
    """

    #: a detour crosses one socket however many overlay hops it stands for,
    #: so its per-hop timer gets no allowance beyond the policy's timeout
    detour_hop_transit = 0.0

    def __init__(self) -> None:
        self._routes: Dict[Hashable, Address] = {}
        self._links: Dict[Address, _Link] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self._closed = False
        #: optional flight recorder (set by the cluster's attach_recorder);
        #: None keeps every hot path at one attribute check of overhead
        self.recorder: Optional[Any] = None

    # -- clock & timers ------------------------------------------------------

    @property
    def now(self) -> float:
        """The running loop's monotonic clock, in seconds."""
        return asyncio.get_running_loop().time()

    def schedule_after(self, delay: float, callback: Callable[[], None], label: str = "") -> Any:
        """An ``loop.call_later`` timer (the label is for the simulator's
        benefit only — though the flight recorder logs it on fire)."""
        recorder = self.recorder
        if recorder is not None:
            inner = callback

            def callback() -> None:
                recorder.record("timer", label=label, delay=delay)
                inner()

        return asyncio.get_running_loop().call_later(delay, callback)

    # -- routing -------------------------------------------------------------

    def assign(self, peer_id: Hashable, address: Address) -> None:
        """Bind ``peer_id`` to the node listening at ``address``."""
        self._routes[peer_id] = address

    def address_of(self, peer_id: Hashable) -> Optional[Address]:
        """The address bound to ``peer_id``, if any."""
        return self._routes.get(peer_id)

    def register(self, node: Any) -> None:
        """Membership refresh hook: a no-op, because reachability is
        address-book based (see the class docstring)."""

    def unregister(self, node_id: Hashable) -> None:
        """Drop ``node_id``'s route (its messages become drops)."""
        if self._routes.pop(node_id, None) is not None and self.recorder is not None:
            self.recorder.record("route", action="unregister", peer=node_id)

    def has_node(self, node_id: Hashable) -> bool:
        return node_id in self._routes

    def node_ids(self) -> Iterable[Hashable]:
        return list(self._routes)

    # -- sending -------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Frame ``message`` and enqueue it on the link to its host node."""
        address = self._routes.get(message.receiver)
        if address is None:
            self._drop(message)
            return
        self.messages_sent += 1
        if self.recorder is not None:
            # Scalars only — no message_to_wire here.  Replay re-derives
            # sends from the executors; the deliver tap captures the full
            # frame on arrival, so this event exists for the timeline.
            self.recorder.record(
                "send",
                kind=message.kind,
                query_id=message.query_id,
                send=message.send,
                sender=message.sender,
                receiver=message.receiver,
                hop=message.hop,
            )
        self._link(address).enqueue(message)

    def send_frame(self, address: Address, frame: Dict[str, Any]) -> None:
        """Enqueue one raw control frame on the link to ``address``.

        The control plane addresses *processes*, not zones: gossip frames
        go straight to a node address, bypassing the PeerID route table —
        a dead peer's route being withdrawn must never silence the very
        pings that would detect its host.  Fire-and-forget: a broken link
        just loses the frame, and that silence is exactly the liveness
        signal the SWIM loop is built to read.
        """
        self._link(address).enqueue(encode_frame(frame))

    def post(self, address: Address, frame: Dict[str, Any], then: Then) -> None:
        """Send one request frame to the node at ``address``; ``then(reply,
        None)`` gets its ``reply`` frame, whatever its ``ok`` field says.

        It travels on the same socket as the casts to that node.  Only a
        transport failure is an error, ``then(None, error)``:
        :class:`ConnectionError` (unreachable node, connection lost) or
        ``TimeoutError`` after :meth:`Connection.post_frame`'s 10 s.
        """
        self._link(address).post(frame, then)

    def _link(self, address: Address) -> _Link:
        link = self._links.get(address)
        if link is None or link.broken:
            # A closed transport dials nothing: a link made after close is
            # refused from the start (a late gossip ack, a retry), so no
            # socket outlives the close.
            link = self._links[address] = _Link(address, self._drop)
            link._refused = self._closed
        return link

    def _drop(self, message: Message) -> None:
        """Tell the sender's protocol layer this message will never arrive."""
        self.messages_dropped += 1
        if self.recorder is not None:
            self.recorder.record(
                "drop",
                kind=message.kind,
                query_id=message.query_id,
                send=message.send,
                sender=message.sender,
                receiver=message.receiver,
                hop=message.hop,
            )
        on_drop = message.on_drop
        if on_drop is not None:
            on_drop(message)

    async def close(self) -> None:
        """Flush and close every link; nothing is dialled afterwards."""
        self._closed = True
        links: List[_Link] = list(self._links.values())
        self._links.clear()
        for link in links:
            await link.close()

    def __repr__(self) -> str:
        return (
            f"AsyncioTransport(routes={len(self._routes)}, links={len(self._links)}, "
            f"sent={self.messages_sent})"
        )
