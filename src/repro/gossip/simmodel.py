"""The sim-side gossip model: SWIM over the discrete-event simulator.

The live runtime gained a control plane (:mod:`repro.gossip.swim`); this
module keeps the simulator's side of the live ≡ sim bargain.  The exact
same :class:`~repro.gossip.swim.SwimNode` protocol code runs here, but
``clock``/``schedule`` come from a
:class:`~repro.sim.engine.Simulator` and ``send`` goes through a lossy
in-memory bus — so membership convergence can be tested deterministically
under *seeded, arbitrary* message-loss interleavings, which no amount of
real-socket testing can enumerate.

>>> sim = GossipSim(nodes=4, seed=7)
>>> sim.start()
>>> sim.crash("node-2")
{'P2'}
>>> sim.run(until=20.0) > 0
True
>>> all("P2" in view.dead_ids() for view in sim.surviving_views())
True
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.gossip.membership import ALIVE, Address, MembershipTable, views_converged
from repro.gossip.swim import SwimConfig, SwimNode
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRNG


class GossipSim:
    """N SWIM nodes on one simulator, joined by a seeded lossy bus.

    Each node hosts ``peers_per_node`` peers (PeerIDs ``P<k>``); its
    "address" is a synthetic ``(node_id, 0)`` tuple the bus resolves.
    ``loss`` drops each frame independently with that probability, and
    ``delay`` spreads deliveries over ``[delay/2, delay)`` sim seconds —
    both drawn from substreams of ``seed``, so one seed is one exact
    interleaving.
    """

    def __init__(
        self,
        nodes: int,
        seed: int = 1,
        config: Optional[SwimConfig] = None,
        loss: float = 0.0,
        delay: float = 0.02,
        peers_per_node: int = 1,
    ) -> None:
        if nodes < 2:
            raise ValueError("need at least two nodes to gossip")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be within [0, 1)")
        if delay <= 0:
            raise ValueError("delay must be positive")
        if peers_per_node < 1:
            raise ValueError("peers_per_node must be at least 1")
        self.sim = Simulator()
        self.config = config if config is not None else SwimConfig()
        self.loss = loss
        self.delay = delay
        self.seed = seed
        rng = DeterministicRNG(seed)
        self._loss_rng = rng.substream("gossip-loss")
        self._delay_rng = rng.substream("gossip-delay")
        self.nodes: Dict[str, SwimNode] = {}
        self.hosted: Dict[str, Set[str]] = {}
        self.down_nodes: Set[str] = set()
        self.down_peers: Set[str] = set()
        self.frames_sent = 0
        self.frames_lost = 0
        self._by_address: Dict[Address, str] = {}

        peer_index = 0
        all_peers: List[Tuple[str, str, Address]] = []  # (peer, node, address)
        for index in range(nodes):
            node_id = f"node-{index}"
            address: Address = (node_id, 0)
            tenants = set()
            for _ in range(peers_per_node):
                tenants.add(f"P{peer_index}")
                peer_index += 1
            self.hosted[node_id] = tenants
            self._by_address[address] = node_id
            for peer in sorted(tenants):
                all_peers.append((peer, node_id, address))

        for index in range(nodes):
            node_id = f"node-{index}"
            address = (node_id, 0)
            table = MembershipTable()
            # Bootstrap: every view starts fully seeded, as the live
            # cluster's bootstrap protocol leaves it; convergence under
            # churn is what the gossip loop must then maintain.
            for peer, _home, peer_address in all_peers:
                table.apply(peer, ALIVE, 0, peer_address)
            agent = SwimNode(
                node_id,
                address,
                table,
                self.config,
                rng.substream("gossip", node_id),
                clock=lambda: self.sim.now,
                schedule=self.sim.schedule_after,
                send=self._make_send(node_id),
                hosted=self._make_hosted(node_id),
                is_up=lambda peer: peer not in self.down_peers,
                on_event=None,
            )
            self.nodes[node_id] = agent

    def _make_hosted(self, node_id: str):
        return lambda: self.hosted[node_id]

    def _make_send(self, node_id: str):
        def send(address: Address, frame) -> None:
            self.frames_sent += 1
            if node_id in self.down_nodes:
                return  # a dead process sends nothing
            if self.loss > 0.0 and self._loss_rng.random() < self.loss:
                self.frames_lost += 1
                return
            target = self._by_address.get(tuple(address))
            if target is None or target in self.down_nodes:
                return  # destination process is gone: silence, not an error
            transit = self.delay * (0.5 + 0.5 * self._delay_rng.random())
            agent = self.nodes[target]
            self.sim.schedule_after(transit, lambda: agent.handle_frame(frame))

        return send

    # -- control -------------------------------------------------------------

    def start(self) -> None:
        for agent in self.nodes.values():
            agent.start()

    def run(self, until: float) -> int:
        """Advance the simulation; returns the number of events executed."""
        return self.sim.run(until=until)

    def crash(self, node_id: str) -> Set[str]:
        """Kill one node process: its peers stop acking, its timers die.

        Returns the PeerIDs that went down with it.
        """
        agent = self.nodes[node_id]
        agent.stop()
        self.down_nodes.add(node_id)
        victims = set(self.hosted[node_id])
        self.down_peers.update(victims)
        return victims

    def revive(self, node_id: str) -> None:
        """Restart a crashed node: its tenants rejoin at fresh incarnations
        (the agent's ``_ensure_local``/``_refute`` pass handles the bump)."""
        self.down_nodes.discard(node_id)
        self.down_peers.difference_update(self.hosted[node_id])
        self.nodes[node_id].start()

    # -- inspection ----------------------------------------------------------

    def surviving_views(self) -> List[MembershipTable]:
        return [
            agent.table
            for node_id, agent in self.nodes.items()
            if node_id not in self.down_nodes
        ]

    def converged(self, expect_dead: Iterable[str] = ()) -> bool:
        """:func:`~repro.gossip.membership.views_converged` over the
        surviving views; with no node left standing there is nothing to
        disagree, so that counts as converged."""
        views = self.surviving_views()
        return not views or views_converged(views, expect_dead)

    def run_until_converged(
        self, expect_dead: Iterable[str] = (), timeout: float = 60.0, step: float = 0.5
    ) -> Optional[float]:
        """Run in ``step`` increments until convergence; returns the sim
        time it was first observed, or None on timeout."""
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            self.sim.run(until=min(self.sim.now + step, deadline))
            if self.converged(expect_dead):
                return self.sim.now
        return None
