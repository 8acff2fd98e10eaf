"""The transport seam between query executors and the world below them.

The resumable PIRA/MIRA executors (:mod:`repro.core.resumable`) were written
against the discrete-event :class:`~repro.sim.network.OverlayNetwork`, but
everything they actually need from it is narrow: put a message on the wire,
arm a cancellable timer, read a clock, and track which node ids are
reachable.  :class:`Transport` names exactly that surface, and the executors
now talk to ``self.transport`` instead of reaching into the overlay — which
is the seam that lets the *same* handler code run

* on the simulator, via :class:`SimTransport` (a zero-logic delegation to
  ``OverlayNetwork``; the fault-free simulated path stays byte-identical to
  the pre-seam code), and
* on real asyncio TCP sockets, via
  :class:`repro.runtime.transport.AsyncioTransport` (frames each message as
  length-prefixed JSON and delivers it to the peer node hosting the
  receiver).

``register``/``unregister``/``node_ids`` exist because the executors'
:meth:`~repro.core.resumable.ResumableExecutor.refresh_membership` keeps the
reachable-node set in sync with the peer table after churn; a transport is
free to interpret registration however it routes (the simulator stores the
node object, the asyncio transport keeps an address book bound separately).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Protocol

from repro.sim.network import Message, OverlayNetwork


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

    @property
    def now(self) -> float:
        """The current time on this transport's clock (simulated units or
        wall-clock seconds — callers must only difference values)."""

    def send(self, message: Message) -> None:
        """Deliver ``message`` to the node hosting ``message.receiver``.

        Must not raise for a receiver that disappeared after the caller's
        :meth:`has_node` check — undeliverable messages surface through the
        message's ``on_drop`` metadata callback instead.
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


class SimTransport:
    """:class:`Transport` over the discrete-event overlay network.

    Pure delegation — every call forwards to the wrapped
    :class:`~repro.sim.network.OverlayNetwork` / simulator pair, so an
    executor constructed with (or defaulting to) a ``SimTransport`` behaves
    byte-identically to the pre-seam code.  The wrapped overlay stays public
    as :attr:`overlay` because the synchronous drivers (the executors'
    :meth:`~repro.core.resumable.ResumableExecutor.execute`, the engine, the
    sweep orchestrator) still run the simulator directly.
    """

    __slots__ = ("overlay",)

    def __init__(self, overlay: OverlayNetwork) -> None:
        self.overlay = overlay

    @property
    def now(self) -> float:
        return self.overlay.simulator.now

    def send(self, message: Message) -> None:
        self.overlay.send(message)

    def schedule_after(self, delay: float, callback: Callable[[], None], label: str = "") -> Any:
        return self.overlay.simulator.schedule_after(delay, callback, label=label)

    def has_node(self, node_id: Hashable) -> bool:
        return self.overlay.has_node(node_id)

    def register(self, node: Any) -> None:
        self.overlay.register(node)

    def unregister(self, node_id: Hashable) -> None:
        self.overlay.unregister(node_id)

    def node_ids(self) -> Iterable[Hashable]:
        return self.overlay.node_ids()

    def __repr__(self) -> str:
        return f"SimTransport(overlay={self.overlay!r})"
