"""The user-facing Armada API.

:class:`ArmadaSystem` bundles everything a downstream application needs:

* a FISSIONE network of ``num_peers`` peers (built deterministically from a
  seed),
* one :class:`~repro.core.deployment.Deployment` over that network and the
  discrete-event overlay — naming (``Single_hash`` and, when configured
  with several attribute intervals, ``Multiple_hash``), the PIRA / MIRA
  executors, and the write / failover-read / launch rules the live cluster
  runs too (this class adds nothing to them but the simulator's clock), and
* convenience helpers for publishing objects, exact-match lookups, churn and
  topology statistics.

Example
-------
>>> from repro.core.armada import ArmadaSystem
>>> system = ArmadaSystem(num_peers=64, seed=7, attribute_interval=(0.0, 1000.0))
>>> _ = [system.insert(float(v), payload=f"object-{v}") for v in range(0, 1000, 25)]
>>> result = system.range_query(100.0, 200.0)
>>> sorted(result.matching_values())
[100.0, 125.0, 150.0, 175.0, 200.0]
>>> result.delay_hops <= 2 * system.log_size() + 1
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.deployment import Deployment
from repro.core.errors import QueryError
from repro.core.pira import RangeQueryResult
from repro.faults.injector import FaultInjector
from repro.fissione.network import FissioneNetwork
from repro.fissione.peer import StoredObject
from repro.fissione.routing import RoutePath, route
from repro.fissione.stabilize import TopologyReport, check_topology
from repro.sim.network import OverlayNetwork
from repro.sim.rng import DeterministicRNG


@dataclass
class ExactQueryResult:
    """Outcome of an exact-match (single value) query."""

    value: float
    route_path: RoutePath
    objects: List[StoredObject]

    @property
    def delay_hops(self) -> int:
        """Routing delay of the lookup."""
        return self.route_path.hops


class ArmadaSystem:
    """Armada range-query service over a simulated FISSIONE network."""

    def __init__(
        self,
        num_peers: int,
        seed: int = 1,
        attribute_interval: Tuple[float, float] = (0.0, 1000.0),
        attribute_intervals: Optional[Sequence[Tuple[float, float]]] = None,
        object_id_length: int = 32,
        network: Optional[FissioneNetwork] = None,
        overlay: Optional[OverlayNetwork] = None,
    ) -> None:
        self.rng = DeterministicRNG(seed)
        if network is None:
            network = FissioneNetwork.build(
                num_peers=num_peers,
                rng=self.rng.substream("topology"),
                object_id_length=object_id_length,
            )
        self.network = network
        self.overlay = overlay if overlay is not None else OverlayNetwork()
        # Persistent sub-streams: deriving them once keeps successive calls
        # (query origins, late joins, departures) independent draws while the
        # whole system stays reproducible from the single seed.
        self._origin_rng = self.rng.substream("origins")
        self._join_rng = self.rng.substream("late-joins")
        self._leave_rng = self.rng.substream("departures")

        self.deployment = Deployment(
            self.network,
            self.overlay,
            attribute_interval,
            attribute_intervals,
            origin_rng=self._origin_rng,
            down=self._down_ids,
        )
        self.single_namer = self.deployment.single_namer
        self.multi_namer = self.deployment.multi_namer
        self.executors = self.deployment.executors  # by message kind
        self.pira = self.executors["pira"]
        self.mira = self.executors.get("mira")

    # ------------------------------------------------------------------ #
    # basic information                                                    #
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of peers."""
        return self.network.size

    def log_size(self) -> float:
        """``log2 N``, the paper's reference delay line."""
        return math.log2(self.size) if self.size else 0.0

    def topology_report(self) -> TopologyReport:
        """Structural health report of the underlying FISSIONE topology."""
        return check_topology(self.network)

    def random_peer_id(self) -> str:
        """A uniformly random PeerID whose peer is up (the default query origin)."""
        return self.deployment.default_origin()

    # ------------------------------------------------------------------ #
    # faults & resilience                                                  #
    # ------------------------------------------------------------------ #

    def set_resilience(self, policy) -> None:
        """Apply a :class:`~repro.faults.resilience.ResiliencePolicy` (or
        ``None``) to every query executor of this system."""
        for executor in self.executors.values():
            executor.set_resilience(policy)

    def install_faults(self, plan):
        """Install a :class:`~repro.faults.plan.FaultPlan` on the overlay.

        Returns the :class:`~repro.faults.injector.FaultInjector`, or
        ``None`` for an empty plan (which leaves the overlay untouched, so
        the run stays byte-identical to a fault-free one).
        """
        return plan.install(self.overlay)

    def crash_peer(self, peer_id: str) -> None:
        """Hard-kill one peer, as :meth:`LiveCluster.crash_peer
        <repro.runtime.cluster.LiveCluster.crash_peer>` does: mark it down
        and power-fail it (volatile state and unsynced writes are lost).

        The down set is the overlay's fault injector; the first kill on a
        fault-free system installs one with no models.
        """
        injector = self.overlay.fault_injector
        if injector is None:
            injector = FaultInjector(self.overlay, []).install()
        injector.power_fail(peer_id)

    def _down_ids(self):
        """PeerIDs crash-stopped by an installed fault plan (the
        deployment's ``down`` view)."""
        injector = self.overlay.fault_injector
        return injector.down_ids if injector is not None else ()

    # ------------------------------------------------------------------ #
    # publishing                                                           #
    # ------------------------------------------------------------------ #

    def insert(self, value: float, payload: Any = None, replicas: int = 1) -> str:
        """Publish a single-attribute object; returns its ObjectID.

        ``replicas=k`` durably appends the object on the owner plus ``k-1``
        prefix siblings before returning; a placement that includes a
        crashed peer is refused (:meth:`Deployment.place`).
        """
        object_id, key, payload = self.deployment.name_insert(value, payload)
        self.deployment.write(object_id, key, payload, replicas)
        return object_id

    def insert_many(self, values: Sequence[float]) -> List[str]:
        """Publish many single-attribute objects (payload defaults to the value)."""
        return [self.insert(float(value), payload=float(value)) for value in values]

    def insert_multi(
        self, values: Sequence[float], payload: Any = None, replicas: int = 1
    ) -> str:
        """Publish a multi-attribute object; returns its ObjectID."""
        object_id, key, payload = self.deployment.name_multi_insert(values, payload)
        self.deployment.write(object_id, key, payload, replicas)
        return object_id

    # ------------------------------------------------------------------ #
    # queries                                                              #
    # ------------------------------------------------------------------ #

    def range_query(
        self,
        low: float,
        high: float,
        origin: Optional[str] = None,
    ) -> RangeQueryResult:
        """Single-attribute range query ``[low, high]`` via PIRA."""
        if high < low:
            raise QueryError(f"range low bound {low} exceeds high bound {high}")
        return self._execute("pira", [(low, high)], origin)

    def multi_range_query(
        self,
        ranges: Sequence[Tuple[float, float]],
        origin: Optional[str] = None,
    ) -> RangeQueryResult:
        """Multi-attribute range query via MIRA."""
        return self._execute("mira", ranges, origin)

    def _execute(self, kind: str, ranges, origin: Optional[str]) -> RangeQueryResult:
        """Launch one query and drain the overlay (the blocking wrapper)."""
        result = self.deployment.launch(kind, ranges, origin)
        self.overlay.run()
        return result

    def exact_query(self, value: float, origin: Optional[str] = None) -> ExactQueryResult:
        """Exact-match query for one attribute value (plain FISSIONE routing)."""
        origin_id = origin if origin is not None else self.random_peer_id()
        object_id = self.single_namer.name(value)
        path = route(self.network, origin_id, object_id)
        objects = [
            stored
            for stored in self.network.peer(path.destination).get(object_id)
            if stored.key == float(value)
        ]
        return ExactQueryResult(value=float(value), route_path=path, objects=objects)

    # ------------------------------------------------------------------ #
    # churn                                                                #
    # ------------------------------------------------------------------ #

    def add_peers(self, count: int) -> None:
        """Grow the network by ``count`` peers and refresh query membership."""
        for _ in range(count):
            self.network.join(rng=self._join_rng)
        self._refresh()

    def remove_peers(self, count: int) -> None:
        """Shrink the network by ``count`` random departures."""
        for _ in range(count):
            if self.network.size <= self.network.base + 1:
                break
            victim = self.network.random_peer(self._leave_rng).peer_id
            self.network.leave(victim)
        self._refresh()

    def _refresh(self) -> None:
        for executor in self.executors.values():
            executor.refresh_membership()

    # ------------------------------------------------------------------ #
    # statistics                                                           #
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Key statistics of the system (sizes, degree, ID length, objects)."""
        report = self.topology_report()
        peers = list(self.network.peers())
        backend = peers[0].backend.backend_name if peers else "memory"
        return {
            "peers": self.size,
            "objects": self.network.total_objects(),
            "storage": backend,
            "replica_copies": sum(peer.backend.replica_count() for peer in peers),
            "log2_peers": self.log_size(),
            "average_out_degree": report.average_out_degree,
            "average_id_length": report.average_id_length,
            "max_id_length": report.max_id_length,
            "healthy": report.healthy,
        }

    def __repr__(self) -> str:
        return f"ArmadaSystem(peers={self.size}, objects={self.network.total_objects()})"
