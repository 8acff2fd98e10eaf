"""Overlay network model.

The overlay network connects protocol nodes (DHT peers) to the discrete-event
scheduler.  Every message sent through the network is

* counted in plain int fields, as the live transport counts its sends
  (``messages_sent``, ``messages_dropped``, ...),
* offered to the installed fault injector, if any — the one way a message
  is lost short of its receiver leaving — and
* delivered to the destination node after a latency chosen by the pluggable
  latency model (one simulated time unit per hop by default, matching the
  paper's hop-count delay metric).

A lost message is reported to its sender through the message's ``on_drop``
hook; the query executors charge it to the query's resilience ledger.

Nodes are any objects that expose a hashable ``node_id`` attribute and a
``handle_message(network, message)`` method; the control plane's SWIM
agents are nodes too, reached through :meth:`OverlayNetwork.send_frame`
(they need only ``handle_frame(frame)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Protocol, Tuple

from repro.sim.engine import Simulator


@dataclass(slots=True)
class Message:
    """A message travelling through the overlay.

    One typed record, carried as it is: the overlay schedules the object
    the sender passed to :meth:`OverlayNetwork.send`, and the query
    executors' pending send *is* its message (a subclass adding only
    sender-side state), so a retransmission re-sends the same object.

    Attributes
    ----------
    sender / receiver:
        Node identifiers (opaque, hashable).
    kind:
        Short string describing the message type, e.g. ``"range-query"``.
    hop:
        Number of overlay hops this message (and its ancestors along the same
        query path) has travelled.  The sender sets it to its own hop + 1.
    query_id:
        Identifier tying together all messages of one query, used by the
        metrics collection in the experiments.
    level / branch / send:
        A forwarding message's place in its query: the FRT level of the
        receiver's occurrence, the branch index, and the logical send id
        (every physical copy of one send carries the same id).
    latency:
        Delivery latency override in hops — a detour models a multi-hop
        route; ``None`` leaves it to the overlay's latency model.
    trace / span:
        Distributed-tracing context (trace id, the hop's span id); ``None``
        unless the query is traced.
    handler / on_drop:
        Local hooks that never cross a socket: ``handler(node, network,
        message)`` takes the delivery instead of ``node.handle_message``,
        and ``on_drop(message)`` learns that the message will never arrive.
    """

    sender: Hashable
    receiver: Hashable
    kind: str
    hop: int = 0
    query_id: Optional[int] = None
    level: Optional[int] = None
    branch: Optional[int] = None
    send: Optional[int] = None
    latency: Optional[float] = None
    trace: Optional[str] = None
    span: Optional[int] = None
    handler: Optional[Callable[[Any, "OverlayNetwork", "Message"], None]] = None
    on_drop: Optional[Callable[["Message"], None]] = None


class LatencyModel(Protocol):
    """Maps a message to a delivery latency in simulation time units."""

    def latency(self, message: Message) -> float:
        """Latency for delivering ``message``."""


class HopLatencyModel:
    """One simulated time unit per overlay hop (the paper's delay metric)."""

    def latency(self, message: Message) -> float:
        return 1.0


class UniformLatencyModel:
    """Uniformly random latency per hop, for wall-clock style examples."""

    def __init__(self, low_ms: float, high_ms: float, rng: Any) -> None:
        if low_ms < 0 or high_ms < low_ms:
            raise ValueError("require 0 <= low_ms <= high_ms")
        self._low = low_ms
        self._high = high_ms
        self._rng = rng

    def latency(self, message: Message) -> float:
        return self._rng.uniform(self._low, self._high)


class NodeProtocol(Protocol):
    """Minimal interface protocol nodes must implement."""

    node_id: Hashable

    def handle_message(self, network: "OverlayNetwork", message: Message) -> None:
        """Process a delivered message."""


class FaultInjectorProtocol(Protocol):
    """What the overlay needs from a fault injector (see :mod:`repro.faults`).

    The overlay consults the injector twice per message: once at send time
    (``on_send`` may drop the message, delay it, or duplicate it) and once
    at delivery time (``blocks_delivery`` models receivers that crashed or
    were partitioned away while the message was in flight).  Both return
    cheaply when no fault applies, so an installed-but-idle injector does
    not change simulation results.
    """

    def on_send(self, message: Message) -> "FaultDecision":
        """Fault decision for a message about to be scheduled."""

    def blocks_delivery(self, message: Message) -> Optional[str]:
        """Reason the delivery must be suppressed, or ``None`` to deliver."""


@dataclass(slots=True)
class FaultDecision:
    """Composable outcome of consulting the fault models for one message."""

    drop: bool = False
    reason: str = ""
    extra_delay: float = 0.0
    copies: int = 0

    def combine(self, other: "FaultDecision") -> None:
        """Fold another model's decision into this one (drop wins, delays add)."""
        if other.drop and not self.drop:
            self.drop = True
            self.reason = other.reason
        self.extra_delay += other.extra_delay
        self.copies += other.copies


#: shared "nothing happened" decision — callers must never mutate it
NO_FAULT = FaultDecision()


class NetworkError(RuntimeError):
    """Raised when a message is sent to an unknown node."""


class OverlayNetwork:
    """Registry of nodes plus message delivery through the scheduler."""

    #: what one routed hop beyond the first adds to a detour's transit: the
    #: overlay delivers a detour after its ``latency``, counted in hops of
    #: one simulated unit each (the executors' per-hop timers budget for it)
    detour_hop_transit = 1.0

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        self.latency_model = latency_model if latency_model is not None else HopLatencyModel()
        self._nodes: Dict[Hashable, NodeProtocol] = {}
        #: True when a node with that id is registered — the registry's own
        #: membership test, so the executors' per-send check costs no frame
        self.has_node: Callable[[Hashable], bool] = self._nodes.__contains__
        self._fault_injector: Optional["FaultInjectorProtocol"] = None
        #: messages handed to :meth:`send` (dropped ones included)
        self.messages_sent = 0
        #: messages the fault injector dropped at send time
        self.messages_dropped = 0
        #: extra copies a duplication fault scheduled
        self.messages_duplicated = 0
        #: messages lost at delivery: the receiver left, crashed or was
        #: partitioned away while they were in flight
        self.messages_undeliverable = 0
        #: lost messages by fault reason (``"loss"``, ``"crash"``, ...),
        #: at send and at delivery time alike
        self.drops_by_reason: Dict[str, int] = {}

    # -- clock & timers (with the node registry and ``send``, what makes the
    # -- overlay the simulator's :class:`~repro.core.transport.Transport`) ----

    @property
    def now(self) -> float:
        """The simulator's clock."""
        return self.simulator.now

    def schedule_after(self, delay: float, callback: Callable[[], None], label: str = "") -> Any:
        """A cancellable simulator timer firing ``callback`` after ``delay``."""
        return self.simulator.schedule_after(delay, callback, label=label)

    # -- node management ---------------------------------------------------

    def register(self, node: NodeProtocol) -> None:
        """Add a node to the overlay (replacing any node with the same id)."""
        self._nodes[node.node_id] = node

    def unregister(self, node_id: Hashable) -> None:
        """Remove a node; messages to it afterwards raise :class:`NetworkError`."""
        self._nodes.pop(node_id, None)

    def node(self, node_id: Hashable) -> NodeProtocol:
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise NetworkError(f"unknown node {node_id!r}") from exc

    def node_ids(self):
        """Iterate over registered node identifiers."""
        return list(self._nodes.keys())

    # -- fault injection ----------------------------------------------------

    def set_fault_injector(self, injector: Optional[FaultInjectorProtocol]) -> None:
        """Install (or remove) the composable fault injector.

        The injector is consulted on every send and every delivery; with no
        injector installed both paths are zero-cost, so the fault-free
        simulation is byte-identical to the pre-faults code.
        """
        self._fault_injector = injector

    @property
    def fault_injector(self) -> Optional[FaultInjectorProtocol]:
        """The currently installed fault injector, if any."""
        return self._fault_injector

    # -- message delivery ---------------------------------------------------

    def send(self, message: Message) -> None:
        """Send a message: count it and schedule its delivery."""
        if message.receiver not in self._nodes:
            raise NetworkError(f"message to unknown node {message.receiver!r}")
        self.messages_sent += 1
        extra_delay = 0.0
        copies = 0
        if self._fault_injector is not None:
            decision = self._fault_injector.on_send(message)
            if decision.drop:
                self.messages_dropped += 1
                self._lose(message, decision.reason)
                return
            extra_delay = decision.extra_delay
            copies = decision.copies
        override = message.latency
        if override is not None:
            latency = float(override) + extra_delay
        else:
            # Exact-class fast path for the default hop-latency model: its
            # answer is the constant 1.0, not worth a Python call per message.
            model = self.latency_model
            latency = (
                1.0 if model.__class__ is HopLatencyModel else model.latency(message)
            ) + extra_delay
        # Deliveries are never cancelled, so they go through the scheduler's
        # handle-free fast path (schedule_call); a negative latency still
        # raises the same SimulationError through its past-time check.
        simulator = self.simulator
        # Direct clock read (same subsystem): the `now` property costs a
        # Python call per message for no added safety here.
        simulator.schedule_call(simulator._now + latency, self._deliver, message)
        # Duplication faults: extra copies arrive one latency unit apart so
        # they are strictly ordered after the original (deterministically).
        for copy_index in range(copies):
            self.messages_duplicated += 1
            simulator.schedule_call(
                simulator.now + latency + float(copy_index + 1),
                self._deliver,
                message,
            )

    def send_frame(self, address: Tuple[Hashable, Any], frame: Dict[str, Any]) -> None:
        """Send one control-plane frame to the node registered as ``address[0]``.

        The simulator's side of
        :meth:`~repro.runtime.transport.AsyncioTransport.send_frame`: the
        frame travels as a message of kind ``frame["type"]`` from
        ``frame["node"]``, so it meets the fault injector and the latency
        model like any query message, and its delivery calls the
        receiver's ``handle_frame``.
        """
        self.send(
            Message(
                frame["node"],
                address[0],
                frame["type"],
                handler=lambda node, _network, _message: node.handle_frame(frame),
            )
        )

    def _lose(self, message: Message, reason: str) -> None:
        """Count a lost message under its fault reason (if it has one) and
        tell the sender, whose ``on_drop`` hook — when set — settles it."""
        if reason:
            self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        on_drop = message.on_drop
        if on_drop is not None:
            on_drop(message)

    def _deliver(self, message: Message) -> None:
        """Deliver a message to its destination node (if still present)."""
        node = self._nodes.get(message.receiver)
        if node is None:
            self.messages_undeliverable += 1
            self._lose(message, "")
            return
        if self._fault_injector is not None:
            blocked = self._fault_injector.blocks_delivery(message)
            if blocked is not None:
                self.messages_undeliverable += 1
                self._lose(message, blocked)
                return
        # Messages carrying a ``handler`` hook (the query executors'
        # per-message dispatch) are routed to it directly — same contract as
        # FissionePeer.handle_message's shim, minus one call per message.
        handler = message.handler
        if handler is not None:
            handler(node, self, message)
        else:
            node.handle_message(self, message)

    def run(self, until: Optional[float] = None) -> int:
        """Run the underlying scheduler until quiescence (or ``until``)."""
        return self.simulator.run(until=until)
