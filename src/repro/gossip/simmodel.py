"""The sim-side gossip model: SWIM agents as nodes of the simulated overlay.

The live runtime gained a control plane (:mod:`repro.gossip.swim`); this
module keeps the simulator's side of the live ≡ sim bargain.  The exact
same :class:`~repro.gossip.swim.SwimNode` protocol code runs here, over an
:class:`~repro.sim.network.OverlayNetwork` instead of the asyncio
transport: its timers are simulator events, and its frames are overlay
messages, so loss, partition, duplication, reordering and crash come
from the one :class:`~repro.faults.injector.FaultInjector` the query
plane faces too.  Membership convergence can therefore be tested
deterministically under *seeded, arbitrary* fault interleavings, which
no amount of real-socket testing can enumerate.

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

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.faults.injector import FaultInjector
from repro.faults.models import FaultModel
from repro.gossip.membership import ALIVE, MembershipTable, views_converged
from repro.gossip.swim import SwimConfig, SwimNode
from repro.sim.engine import Simulator
from repro.sim.network import OverlayNetwork, UniformLatencyModel
from repro.sim.rng import DeterministicRNG


class GossipSim:
    """N SWIM nodes on one simulated overlay, under seeded fault models.

    Each node hosts ``peers_per_node`` peers (PeerIDs ``P<k>``); its
    "address" is ``(node_id, 0)``, and the overlay delivers a frame sent
    there to the agent registered as ``node_id``.  ``models`` (loss,
    partition, duplication, extra delay, ...) are installed on a
    :class:`~repro.faults.injector.FaultInjector` seeded with ``seed``, and
    ``delay`` spreads deliveries uniformly over ``[delay/2, delay]`` sim
    seconds, so one seed is one exact interleaving.
    """

    def __init__(
        self,
        nodes: int,
        seed: int = 1,
        config: Optional[SwimConfig] = None,
        models: Sequence[FaultModel] = (),
        delay: float = 0.02,
        peers_per_node: int = 1,
    ) -> None:
        if nodes < 2:
            raise ValueError("need at least two nodes to gossip")
        if delay <= 0:
            raise ValueError("delay must be positive")
        if peers_per_node < 1:
            raise ValueError("peers_per_node must be at least 1")
        self.sim = Simulator()
        self.config = config if config is not None else SwimConfig()
        rng = DeterministicRNG(seed)
        self.network = OverlayNetwork(
            self.sim, UniformLatencyModel(delay / 2, delay, rng.substream("latency"))
        )
        self.faults = FaultInjector(self.network, list(models), seed=seed)
        self.nodes: Dict[str, SwimNode] = {}
        self.hosted: Dict[str, Set[str]] = {
            f"node-{index}": {
                f"P{index * peers_per_node + slot}" for slot in range(peers_per_node)
            }
            for index in range(nodes)
        }

        for node_id in self.hosted:
            table = MembershipTable()
            # Bootstrap: every view starts fully seeded, as the live
            # cluster's bootstrap protocol leaves it; convergence under
            # churn is what the gossip loop must then maintain.
            for home, tenants in self.hosted.items():
                for peer in sorted(tenants):
                    table.apply(peer, ALIVE, 0, (home, 0))
            agent = SwimNode(
                node_id,
                (node_id, 0),
                table,
                self.config,
                rng.substream("gossip", node_id),
                transport=self.network,
                hosted=lambda node_id=node_id: self.hosted[node_id],
                is_up=lambda _peer, node_id=node_id: not self.faults.is_down(node_id),
            )
            self.nodes[node_id] = agent
            self.network.register(agent)
        self.faults.install()

    # -- control -------------------------------------------------------------

    def start(self) -> None:
        for agent in self.nodes.values():
            agent.start()

    def run(self, until: float) -> int:
        """Advance the simulation; returns the number of events executed."""
        return self.sim.run(until=until)

    def crash(self, node_id: str) -> Set[str]:
        """Kill one node process: its timers die and the overlay drops
        every frame to or from it.

        Returns the PeerIDs that went down with it.
        """
        self.nodes[node_id].stop()
        self.faults.crash(node_id)
        return set(self.hosted[node_id])

    # -- inspection ----------------------------------------------------------

    def surviving_views(self) -> List[MembershipTable]:
        return [
            agent.table
            for node_id, agent in self.nodes.items()
            if not self.faults.is_down(node_id)
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
