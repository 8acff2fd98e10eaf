"""The fault injector: runtime glue between fault models and the overlay.

One :class:`FaultInjector` owns

* the crashed-node set (fail-stop / crash-recover state, shared by all
  models and queried by experiments to pick live query origins),
* the per-model seeded substreams (derived once, at install time, from the
  plan seed and the model's position — adding a model never shifts another
  model's draws), and
* the two overlay hooks: :meth:`on_send` (drop / delay / duplicate, the
  composition of every model's verdict) and :meth:`blocks_delivery`
  (receivers that crashed or were partitioned away while the message was
  in flight).

The injector is installed with :meth:`install`, which also lets every
timed model register its activation events on the simulator — fault
activation is therefore ordinary event traffic, interleaving
deterministically with queries.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.faults.models import FaultModel
from repro.sim.engine import Simulator
from repro.sim.network import FaultDecision, Message, NO_FAULT, OverlayNetwork
from repro.sim.rng import DeterministicRNG


class FaultInjector:
    """Drives a list of fault models against one overlay network."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        models: List[FaultModel],
        seed: int = 0,
    ) -> None:
        self.overlay = overlay
        self.simulator: Simulator = overlay.simulator
        self.models = list(models)
        self.rng = DeterministicRNG(seed).substream("faults")
        self._down: Set[object] = set()
        # Any model exposing ``crosses_cut`` is a partition: its verdict is
        # re-checked at delivery time for messages already in flight.
        self._partitions: List[FaultModel] = [
            model for model in self.models if hasattr(model, "crosses_cut")
        ]
        # Timed-only models (crashes) never override on_send and draw no
        # per-message randomness, so skipping them on the hot path cannot
        # shift any model's stream.
        self._message_models: List[FaultModel] = [
            model for model in self.models
            if type(model).on_send is not FaultModel.on_send
        ]
        for index, model in enumerate(self.models):
            model.bind(self.rng.substream(index, model.name))

    # -- installation -------------------------------------------------------

    def install(self) -> "FaultInjector":
        """Hook into the overlay and let timed models schedule themselves."""
        self.overlay.set_fault_injector(self)
        for model in self.models:
            model.schedule(self)
        return self

    def uninstall(self) -> None:
        """Detach from the overlay (crash state is kept, events still fire)."""
        if self.overlay.fault_injector is self:
            self.overlay.set_fault_injector(None)

    def at(self, time: float, callback: Callable[[], None], label: str = "fault") -> None:
        """Schedule a timed fault event (clamped to *now* for past times)."""
        self.simulator.schedule_at(max(time, self.simulator.now), callback, label=label)

    # -- crash state --------------------------------------------------------

    def crash(self, node_id: object) -> None:
        """Mark a node fail-stopped: it no longer sends or receives."""
        self._down.add(node_id)

    def recover(self, node_id: object) -> None:
        """Bring a crashed node back (crash-recover model)."""
        self._down.discard(node_id)

    def power_fail(self, node_id: object) -> None:
        """Crash ``node_id`` *and* lose its volatile storage.

        On top of :meth:`crash`, nodes exposing an ``on_power_fail`` hook
        (FISSIONE peers behind the storage seam) drop their in-memory
        views and any unsynced log tail — what a real process kill does.
        Nodes without the hook (plain test recorders) just crash.
        """
        self.crash(node_id)
        node = self.overlay.node(node_id) if self.overlay.has_node(node_id) else None
        hook = getattr(node, "on_power_fail", None)
        if hook is not None:
            hook()

    def replay(self, node_id: object) -> int:
        """Recover ``node_id`` by replaying its durable log.

        The counterpart of :meth:`power_fail`: the node rejoins the
        overlay serving only what its storage backend replays — nothing
        for a memory backend, every synced record for a durable one.
        Returns the number of replayed records (0 without a hook).
        """
        self.recover(node_id)
        node = self.overlay.node(node_id) if self.overlay.has_node(node_id) else None
        hook = getattr(node, "on_recover", None)
        return hook() if hook is not None else 0

    def is_down(self, node_id: object) -> bool:
        """True while ``node_id`` is crashed."""
        return node_id in self._down

    @property
    def down_ids(self) -> Set[object]:
        """Snapshot of the currently crashed node ids."""
        return set(self._down)

    # -- overlay hooks ------------------------------------------------------

    def on_send(self, message: Message) -> FaultDecision:
        """Composite decision for a message about to be scheduled.

        Crash state is checked first (a dead receiver beats every
        message-level fault), then **all** models are consulted — without
        short-circuiting, so each model's random stream advances exactly
        once per message regardless of what the other models decided.
        """
        combined: Optional[FaultDecision] = None
        if message.receiver in self._down or message.sender in self._down:
            combined = FaultDecision(drop=True, reason="crash")
        for model in self._message_models:
            decision = model.on_send(message, self)
            if decision is NO_FAULT:
                continue
            if combined is None:
                combined = FaultDecision()
            combined.combine(decision)
        return combined if combined is not None else NO_FAULT

    def blocks_delivery(self, message: Message) -> Optional[str]:
        """Suppress deliveries to nodes that died (or were partitioned away)
        while the message was in flight."""
        if message.receiver in self._down:
            return "crash"
        for partition in self._partitions:
            if partition.crosses_cut(message):
                return partition.name
        return None
