"""The transport seam between query executors and the world below them.

Everything the resumable PIRA/MIRA executors (:mod:`repro.core.resumable`)
need from the layer that moves their messages is narrow: put a message on
the wire, arm a cancellable timer, read a clock, and track which node ids
are reachable.  :class:`Transport` names exactly that surface; an executor
is built over one transport and talks to nothing else, which is what lets
the *same* handler code run

* on the simulator: :class:`~repro.sim.network.OverlayNetwork` *is* a
  transport (``send``, the node registry, ``now`` / ``schedule_after``
  delegating to its scheduler) — there is no adapter in between;
* on real asyncio TCP sockets, via
  :class:`repro.runtime.transport.AsyncioTransport` (frames each message as
  length-prefixed JSON and delivers it to the peer node hosting the
  receiver);
* on a recording, via :class:`repro.obs.replay.ReplayTransport` (parks each
  send until the recorded delivery releases it).

``register``/``unregister``/``node_ids`` exist because the executors'
:meth:`~repro.core.resumable.ResumableExecutor.refresh_membership` keeps the
reachable-node set in sync with the peer table after churn; a transport is
free to interpret registration however it routes (the simulator stores the
node object, the asyncio transport keeps an address book bound separately).
A transport that can drain itself synchronously offers ``run()`` (only the
overlay does); the executors' blocking ``execute()`` needs it.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Protocol

from repro.sim.network import Message


class TimerHandle(Protocol):
    """A cancellable timer, as returned by :meth:`Transport.schedule_after`.

    Both the simulator's scheduled events and asyncio's ``TimerHandle``
    satisfy this shape, so the executors cancel timers without knowing which
    world they run in.
    """

    def cancel(self) -> None:
        """Disarm the timer (idempotent)."""


class Transport(Protocol):
    """What a query executor needs from the layer that moves its messages."""

    #: clock units each routed hop of a detour beyond the first adds to its
    #: transit — what the per-hop timer of a detour allows on top of the
    #: policy's timeout (the overlay delays a detour by its ``latency`` in
    #: hops; a socket carries it as one hop)
    detour_hop_transit: float

    @property
    def now(self) -> float:
        """The current time on this transport's clock (simulated units or
        wall-clock seconds — callers must only difference values)."""

    def send(self, message: Message) -> None:
        """Deliver ``message`` to the node hosting ``message.receiver``.

        Must not raise for a receiver that disappeared after the caller's
        :meth:`has_node` check — undeliverable messages surface through the
        message's ``on_drop`` hook instead.
        """

    def schedule_after(self, delay: float, callback: Callable[[], None], label: str = "") -> Any:
        """Arm a timer firing ``callback`` after ``delay`` clock units and
        return its cancellable handle."""

    def has_node(self, node_id: Hashable) -> bool:
        """True while ``node_id`` is reachable through this transport."""

    def register(self, node: Any) -> None:
        """Make ``node`` (anything with a ``node_id``) reachable."""

    def unregister(self, node_id: Hashable) -> None:
        """Drop ``node_id`` from the reachable set (idempotent)."""

    def node_ids(self) -> Iterable[Hashable]:
        """Snapshot of the currently reachable node ids."""
