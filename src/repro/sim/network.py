"""Overlay network model.

The overlay network connects protocol nodes (DHT peers) to the discrete-event
scheduler.  Every message sent through the network is

* counted (total messages, per-kind messages),
* stamped with the hop count accumulated so far, and
* delivered to the destination node after a latency chosen by the pluggable
  latency model (one simulated time unit per hop by default, matching the
  paper's hop-count delay metric).

Nodes are any objects that expose a hashable ``node_id`` attribute and a
``handle_message(network, message)`` method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Protocol, Tuple

from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRegistry


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
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        self.latency_model = latency_model if latency_model is not None else HopLatencyModel()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._nodes: Dict[Hashable, NodeProtocol] = {}
        #: True when a node with that id is registered — the registry's own
        #: membership test, so the executors' per-send check costs no frame
        self.has_node: Callable[[Hashable], bool] = self._nodes.__contains__
        self._drop_filter: Optional[Callable[[Message], bool]] = None
        self._fault_injector: Optional["FaultInjectorProtocol"] = None
        # Per-query drop ledger, keyed by (kind, query_id): lost messages are
        # attributable to the query that sent them even when the sender never
        # installed an ``on_drop`` callback (satellite of the faults work —
        # a query whose messages vanish must be visible, not silently short).
        self._query_drops: Dict[Tuple[str, Any], int] = {}
        # Hot-path caches: per-kind counter objects, so sending a message
        # costs no registry lookups or string formatting.
        self._total_counter = self.metrics.counter("messages.total")
        self._kind_cache: Dict[str, Any] = {}

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

    @property
    def node_count(self) -> int:
        """Number of registered nodes."""
        return len(self._nodes)

    def node_ids(self):
        """Iterate over registered node identifiers."""
        return list(self._nodes.keys())

    # -- fault injection ----------------------------------------------------

    def set_drop_filter(self, drop_filter: Optional[Callable[[Message], bool]]) -> None:
        """Install a predicate; messages for which it returns True are dropped.

        Used by the failure-injection tests.
        """
        self._drop_filter = drop_filter

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

    def drops_for_query(self, kind: str, query_id: Any) -> int:
        """Messages of query ``(kind, query_id)`` that were dropped or
        undeliverable.  Counted unconditionally in :meth:`_notify_drop`, so
        lost queries are visible even when the sender installed no
        ``on_drop`` callback and faults are disabled."""
        return self._query_drops.get((kind, query_id), 0)

    def clear_query_drops(self, kind: str, query_id: Any) -> None:
        """Forget the drop ledger of a finished query (the engine calls
        this at completion so a long-lived overlay stays O(in-flight))."""
        self._query_drops.pop((kind, query_id), None)

    @property
    def total_query_drops(self) -> int:
        """Dropped/undeliverable messages attributable to some query."""
        return sum(self._query_drops.values())

    # -- message delivery ---------------------------------------------------

    def send(self, message: Message) -> None:
        """Send a message: count it and schedule its delivery."""
        kind = message.kind
        if message.receiver not in self._nodes:
            raise NetworkError(f"message to unknown node {message.receiver!r}")
        # Counters are incremented in place (they are plain slotted records
        # owned by this overlay) — two method calls per message saved.
        self._total_counter.value += 1
        kind_counter = self._kind_cache.get(kind)
        if kind_counter is None:
            kind_counter = self.metrics.counter(f"messages.{kind}")
            self._kind_cache[kind] = kind_counter
        kind_counter.value += 1
        if self._drop_filter is not None and self._drop_filter(message):
            self.metrics.counter("messages.dropped").increment()
            self._notify_drop(message)
            return
        extra_delay = 0.0
        copies = 0
        if self._fault_injector is not None:
            decision = self._fault_injector.on_send(message)
            if decision.drop:
                self.metrics.counter("messages.dropped").increment()
                if decision.reason:
                    self.metrics.counter(f"messages.dropped.{decision.reason}").increment()
                self._notify_drop(message)
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
            self.metrics.counter("messages.duplicated").increment()
            simulator.schedule_call(
                simulator.now + latency + float(copy_index + 1),
                self._deliver,
                message,
            )

    def _notify_drop(self, message: Message) -> None:
        """Tell the sender's protocol layer a message will never arrive.

        Senders that track outstanding messages (the concurrent query engine)
        set the message's ``on_drop`` hook; without it a dropped message
        would leave its query waiting forever — which is why the drop is
        *always* charged to the query's ledger first: even callback-less
        queries show up in :meth:`drops_for_query` instead of stalling
        invisibly.
        """
        if message.query_id is not None:
            key = (message.kind, message.query_id)
            self._query_drops[key] = self._query_drops.get(key, 0) + 1
        on_drop = message.on_drop
        if on_drop is not None:
            on_drop(message)

    def _deliver(self, message: Message) -> None:
        """Deliver a message to its destination node (if still present)."""
        node = self._nodes.get(message.receiver)
        if node is None:
            self.metrics.counter("messages.undeliverable").increment()
            self._notify_drop(message)
            return
        if self._fault_injector is not None:
            blocked = self._fault_injector.blocks_delivery(message)
            if blocked is not None:
                self.metrics.counter("messages.undeliverable").increment()
                if blocked:
                    self.metrics.counter(f"messages.dropped.{blocked}").increment()
                self._notify_drop(message)
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
