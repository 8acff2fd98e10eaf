"""The live cluster: bootstrap, membership authority, message dispatch.

:class:`LiveCluster` boots ``num_peers`` FISSIONE peers as live endpoints:

1. the **seed node** starts first, owning the authoritative topology (an
   ordinary :class:`~repro.fissione.network.FissioneNetwork`, seeded with
   the initial ``base + 1`` zones);
2. every further peer **joins through the seed protocol**: a ``join``
   request crosses TCP to the seed (:meth:`AsyncioTransport.request` — the
   cluster has no connection plumbing of its own) carrying a target key,
   and the seed splits the owning zone, rebinds the renamed incumbent's
   route, and replies with the joiner's assigned PeerID; the
   joiner then ``announce``-s the address of the node hosting it, which is
   what makes it routable — peers become reachable only through announced
   addresses, never by global knowledge;
3. query messages between peers travel as ``msg`` casts over the
   :class:`~repro.runtime.transport.AsyncioTransport` — on the same one
   socket per node as the ``store``/``fetch`` requests — and each node
   dispatches them into the **same** resumable PIRA/MIRA executors the
   simulator drives.

What a request *does* to the system is not decided here: the cluster builds
one :class:`~repro.core.deployment.Deployment` over its topology and its
asyncio transport — the class :class:`~repro.core.armada.ArmadaSystem`
builds over the overlay — and that owns the namers, the executors, write
placement and its refusal rule, the one copy write, the failover read rule
and the query launch.  What is left in this module is what only a live
cluster has: the bootstrap/join protocol (topology authority), cast
dispatch, the per-copy TCP round trips of :meth:`LiveCluster.store` /
:meth:`LiveCluster.fetch` (whose far ends, ``_handle_store`` /
``_handle_fetch``, are calls into the deployment), the gossip binding, and
the churn / crash / restart operations.

Tenancy: in FISSIONE a PeerID *is* its zone, so a join renames the split
incumbent and a leave hands the leaver's id to a relocated sibling.  Where
each live PeerID lives is recorded once, in :attr:`LiveCluster.homes`
(PeerID → hosting :class:`PeerNode`), and edited by exactly two methods,
each together with the transport route: :meth:`LiveCluster._place`
(bootstrap, ``announce``, a route restored by a restart or an ``alive``
record) and :meth:`LiveCluster._move`
(the join split, both shapes of a leave).  A rename carries the peer's
down flag to its heir, so a crashed zone stays crashed under its new name.
SWIM's ``hosted()`` callback reads the same map.

Determinism: the join targets are drawn from the exact RNG substream
(``seed → "topology"``) that :meth:`FissioneNetwork.build` uses, one draw
per join, so a live cluster and an :class:`~repro.core.armada.ArmadaSystem`
built from the same seed have identical topologies — the foundation of the
sim≡live equivalence test.

Single-process caveat (documented in ``docs/ARCHITECTURE.md``): peers are
asyncio tasks sharing one process, so the topology object and the one
deployment — its executors' per-query state included — are shared memory,
while every forwarding message and every stored or fetched copy genuinely
crosses a TCP socket.  A multi-host deployment would
replicate the topology through the same join/announce frames; the wire
protocol is already shaped for it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.deployment import Deployment
from repro.fissione.network import FissioneNetwork
from repro.gossip.membership import ALIVE, DEAD, LEFT, MembershipTable, views_converged
from repro.gossip.swim import (
    EVENT_FRAME,
    OP_ACK,
    OP_PING,
    OP_PING_REQ,
    SwimConfig,
    SwimNode,
)
from repro.kautz import strings as ks
from repro.runtime.node import PeerNode
from repro.runtime.protocol import wire_to_message
from repro.runtime.transport import Address, AsyncioTransport
from repro.sim.rng import DeterministicRNG
from repro.storage import BACKENDS, StoredObject, WALStore, store_path
from repro.storage.base import objects_from_wire, objects_to_wire
from repro.wire import decode_value, encode_value


class ClusterError(RuntimeError):
    """Raised on invalid live-cluster operations."""


class LiveCluster:
    """An N-peer FISSIONE overlay running on localhost TCP sockets."""

    def __init__(
        self,
        num_peers: int,
        seed: int = 1,
        attribute_interval: Tuple[float, float] = (0.0, 1000.0),
        attribute_intervals: Optional[Sequence[Tuple[float, float]]] = None,
        object_id_length: int = 32,
        host: str = "127.0.0.1",
        num_nodes: Optional[int] = None,
        extra_transit: float = 0.0,
        storage: str = "memory",
        data_dir: Optional[str] = None,
        gossip: bool = False,
        gossip_config: Optional[SwimConfig] = None,
    ) -> None:
        base = 2
        if num_peers < base + 1:
            raise ClusterError(f"need at least {base + 1} peers, got {num_peers}")
        if num_nodes is not None and num_nodes < 1:
            raise ClusterError("num_nodes must be positive")
        if storage not in BACKENDS:
            raise ClusterError(f"unknown storage backend {storage!r} (choose from {BACKENDS})")
        if storage != "memory" and data_dir is None:
            raise ClusterError(f"storage={storage!r} requires a data_dir")
        self.num_peers = num_peers
        self.seed = seed
        self.host = host
        self.num_nodes = num_nodes
        self.attribute_interval = attribute_interval
        self.attribute_intervals = (
            tuple((float(low), float(high)) for low, high in attribute_intervals)
            if attribute_intervals is not None
            else None
        )
        self.object_id_length = object_id_length
        self.extra_transit = extra_transit
        self.storage = storage
        self.data_dir = data_dir
        #: peers currently hard-killed via :meth:`crash_peer` (not routable)
        self.down_peers: set = set()
        #: records replayed from durable logs at the last attach/restart
        self.replayed_records = 0
        #: durable store syncs acknowledged by hosted peers (metrics feed)
        self.store_syncs = 0
        #: optional flight recorder (see :meth:`attach_recorder`)
        self.recorder: Optional[Any] = None

        #: gossip control plane (decentralized membership; see repro.gossip)
        self.gossip_enabled = gossip
        self.gossip_config = gossip_config if gossip_config is not None else SwimConfig()
        #: one SWIM agent per node, keyed by node name
        self.agents: Dict[str, SwimNode] = {}
        #: gossip control frames sent, by op (``ping``/``ping-req``/``ack``)
        self.gossip_frames: Dict[str, int] = {}
        self._gossip_counter: Optional[Any] = None
        self._gossip_rng: Optional[DeterministicRNG] = None
        #: addresses of gateways currently fronting this cluster — the
        #: session-side failover list, served through ``stats``
        self.gateway_addresses: List[Address] = []
        self._topology_rng: Optional[Any] = None

        self.transport = AsyncioTransport(extra_transit=extra_transit)
        self.network = FissioneNetwork(object_id_length=object_id_length, base=base)
        self.seed_node: Optional[PeerNode] = None
        self.nodes: List[PeerNode] = []
        #: the tenancy map: every live PeerID → the node hosting it (a
        #: routed peer's route is its home's address; see _place / _move)
        self.homes: Dict[str, PeerNode] = {}
        self._next_node_index = 0
        self.started = False

        #: the request rules shared with the simulator: namers, executors
        #: (one per message kind, for all hosted peers), placement, the
        #: copy write / read and the query launch
        self.deployment = Deployment(
            self.network,
            self.transport,
            attribute_interval,
            self.attribute_intervals,
            origin_rng=DeterministicRNG(seed).substream("gateway-origins"),
            down=lambda: self.down_peers,
        )
        self.single_namer = self.deployment.single_namer
        self.executors = self.deployment.executors

    # ------------------------------------------------------------------ #
    # lifecycle                                                            #
    # ------------------------------------------------------------------ #

    async def start(self) -> "LiveCluster":
        """Boot the seed, the initial zones, and join the remaining peers."""
        if self.started:
            raise ClusterError("cluster already started")
        self.seed_node = await PeerNode(
            "seed", self.host, self._dispatch_cast, self._handle_request
        ).start()

        self.network.seed_initial()
        if self.num_nodes is not None:
            for index in range(self.num_nodes):
                await self._start_node(f"node-{index}")
        for peer_id in self.network.peer_ids():
            self._place(peer_id, await self._next_node())

        # Keep the substream: live churn joins (join_peer) continue drawing
        # from it, so a cluster started at N and grown to N+k has the same
        # topology as one started at N+k with the same seed.
        self._topology_rng = DeterministicRNG(self.seed).substream("topology")
        while self.network.size < self.num_peers:
            await self._join_one(self._topology_rng)
        if self.storage != "memory":
            self._attach_durable_stores()
        if self.gossip_enabled:
            self._start_gossip()
        self.started = True
        return self

    def _attach_durable_stores(self) -> None:
        """Open each peer's WAL, replay it, and make it the peer's backend.

        Runs after the bootstrap joins settle so the log files are keyed
        by *final* PeerIDs (boot splits rename peers; logging through the
        renames would orphan half-written files), and before any insert
        can arrive, so the memory store it replaces is empty.  Re-running
        against an existing ``data_dir`` with the same seed reproduces the
        same PeerIDs, so every peer reopens its own log and re-serves its
        prefix slice — this is the cluster-restart recovery path.
        """
        assert self.data_dir is not None
        os.makedirs(self.data_dir, exist_ok=True)
        self.replayed_records = 0
        for peer in self.network.peers():
            store = WALStore(store_path(self.data_dir, peer.peer_id))
            self.replayed_records += store.replay()
            peer.backend = store

    def attach_recorder(self, recorder: Any) -> None:
        """Arm the flight recorder on every layer of a *started* cluster.

        Records the ``meta`` event first — the recorded seed and sizing are
        what :mod:`repro.obs.replay` rebuilds the identical topology from —
        then hands the recorder to the transport and every node so wire
        sends, drops, deliveries, store syncs and faults all land in one
        globally-sequenced ring.
        """
        if not self.started:
            raise ClusterError("attach_recorder needs a started cluster (the "
                               "bootstrap joins must have settled)")
        self.recorder = recorder
        self.transport.recorder = recorder
        for node in self.nodes:
            node.recorder = recorder
        if self.seed_node is not None:
            self.seed_node.recorder = recorder
        recorder.record(
            "meta",
            peers=self.num_peers,
            seed=self.seed,
            base=self.network.base,
            object_id_length=self.object_id_length,
            attribute_interval=list(self.attribute_interval),
            attribute_intervals=(
                [list(pair) for pair in self.attribute_intervals]
                if self.attribute_intervals is not None
                else None
            ),
            storage=self.storage,
            nodes=len(self.nodes),
        )

    async def stop(self) -> None:
        """Close the links, every node's listener, and peer stores."""
        for agent in self.agents.values():
            agent.stop()
        await self.transport.close()
        for node in self.nodes:
            await node.stop()
        if self.seed_node is not None:
            await self.seed_node.stop()
        for peer in self.network.peers():
            peer.backend.close()
        self.started = False

    async def _start_node(self, name: str) -> PeerNode:
        node = await PeerNode(name, self.host, self._dispatch_cast, self._handle_request).start()
        self.nodes.append(node)
        return node

    async def _next_node(self) -> PeerNode:
        """The node that will host the next peer: a fresh one per peer by
        default, round-robin over the fixed pool with ``num_nodes`` set."""
        if self.num_nodes is None:
            return await self._start_node(f"node-{len(self.nodes)}")
        node = self.nodes[self._next_node_index % len(self.nodes)]
        self._next_node_index += 1
        return node

    # ------------------------------------------------------------------ #
    # tenancy: where each PeerID lives                                     #
    # ------------------------------------------------------------------ #

    def _place(self, peer_id: str, node: PeerNode) -> None:
        """Make ``node`` the home of ``peer_id`` and route the id to it."""
        self.homes[peer_id] = node
        self.transport.assign(peer_id, node.address)

    def _move(self, old_id: str, new_id: str) -> None:
        """Rename a tenant in place: its home, its route (or, if gossip
        withdrew it, the lack of one) and its down flag pass from the
        retired id to the heir, and the retired id keeps none of them."""
        node = self.homes.pop(old_id)
        self.homes[new_id] = node
        if self.transport.address_of(old_id) is not None:
            self.transport.assign(new_id, node.address)
        else:
            self.transport.unregister(new_id)
        self.transport.unregister(old_id)
        if old_id in self.down_peers:
            self.down_peers.discard(old_id)
            self.down_peers.add(new_id)

    # ------------------------------------------------------------------ #
    # bootstrap protocol                                                   #
    # ------------------------------------------------------------------ #

    async def _join_one(self, rng) -> Tuple[str, Dict[str, str], PeerNode]:
        """One peer joins through the seed, over a real TCP round trip.

        Returns ``(assigned_id, {renamed_victim: new_id}, hosting_node)``.
        """
        assert self.seed_node is not None
        target = self.network.random_object_id(rng)
        seed = self.seed_node.address
        reply = await self.transport.request(seed, {"type": "join", "target": target})
        if not reply.get("ok", False):
            raise ClusterError(f"join refused by the seed: {reply.get('error', 'unknown error')}")
        assigned = reply["assigned"]
        node = await self._next_node()
        await self.transport.request(
            seed, {"type": "announce", "peer": assigned, "host": node.host, "port": node.port}
        )
        return assigned, dict(reply.get("renamed", {})), node

    # ------------------------------------------------------------------ #
    # frame handlers (shared by every node endpoint)                       #
    # ------------------------------------------------------------------ #

    def _dispatch_cast(self, frame: Dict[str, Any]) -> None:
        """Route a fire-and-forget frame into the protocol handlers."""
        if frame.get("type") != "msg":
            return
        receiver = frame.get("receiver")
        if receiver is not None and receiver in self.down_peers:
            # kill -9 semantics: the zone's process is gone, so a frame that
            # still reaches its host endpoint dies on the floor.  The sender
            # learns nothing until its own resilience timers fire — or a
            # gossip dead report withdraws the route.
            return
        message = wire_to_message(frame)
        executor = self.executors.get(message.kind)
        if executor is None:
            return
        # Delivery recording happens in PeerNode._serve (which holds the
        # undecoded wire bytes), before this dispatch runs.
        executor.handle_message(self.transport, message)

    def _handle_request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        kind = frame.get("type")
        if kind == "ping":
            return {"ok": True}
        if kind == "join":
            return self._handle_join(frame)
        if kind == "announce":
            address = (frame["host"], int(frame["port"]))
            self._place(frame["peer"], next(n for n in self.nodes if n.address == address))
            return {"ok": True}
        if kind == "store":
            return self._handle_store(frame)
        if kind == "fetch":
            return self._handle_fetch(frame)
        return {"ok": False, "error": f"unknown request type {kind!r}"}

    def _handle_join(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Split a zone for a joiner and rebind the renamed incumbent.

        The incumbent peer's id grows by one symbol (it keeps the left
        child zone); its route moves with it atomically, before the reply,
        so no frame is ever addressed to the retired id.
        """
        # join returns the new right child; its id minus the last symbol is
        # the split peer, which keeps the left child zone.
        right = self.network.join(target_key=frame["target"]).peer_id
        victim = right[:-1]
        left = victim + ks.allowed_symbols(victim[-1], base=self.network.base)[0]
        self._move(victim, left)
        return {"ok": True, "assigned": right, "renamed": {victim: left}}

    def _handle_store(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Durably append one copy of an object on the addressed peer.

        The far end of one :meth:`store` round trip: ``peer`` and ``role``
        go to :meth:`Deployment.write_copy`, and the reply is sent only
        after the peer's backend has synced — the per-copy durability ack.
        A frame without ``peer`` is malformed (an ``ok: false`` reply).
        """
        peer_id = frame["peer"]
        self.deployment.write_copy(
            peer_id,
            frame.get("role"),
            frame["object_id"],
            decode_value(frame["key"]),
            decode_value(frame["value"]),
        )
        self.store_syncs += 1
        if self.recorder is not None:
            # Wire forms straight off the frame: the replay engine re-applies
            # them through decode_value, exactly like this handler did.
            self.recorder.record(
                "store",
                object_id=frame["object_id"],
                key=frame["key"],
                value=frame["value"],
                peer=peer_id,
                owner=peer_id,
                role=frame.get("role"),
            )
        return {"ok": True, "owner": peer_id}

    def _handle_fetch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Read one peer's copies of an ObjectID (primary, else replica)."""
        found = self.deployment.read_copy(frame["peer"], frame["object_id"])
        return {"ok": True, "objects": objects_to_wire(found)}

    # ------------------------------------------------------------------ #
    # gateway-facing helpers                                               #
    # ------------------------------------------------------------------ #

    async def store(
        self, object_id: str, key: Any, value: Any, replicas: int = 1
    ) -> List[str]:
        """Durably publish one object on ``replicas`` peers; returns them.

        Each copy is a ``store`` frame to the node hosting that peer (a
        real TCP round trip per copy): the owner takes the primary copy,
        the next ``replicas - 1`` prefix siblings take replica copies.
        The call returns — i.e. the write is *acknowledged* — only after
        every target's backend has synced its append.  Any per-copy
        failure raises :class:`ClusterError`, so a partially-replicated
        write is always reported failed, never silently dropped.  Known
        dead targets fail the write *before* any copy is appended
        (:meth:`Deployment.place`), so the common crash case leaves no
        partial ghost behind either.
        """
        targets = self.deployment.place(object_id, replicas)
        acked: List[str] = []
        for index, peer_id in enumerate(targets):
            address = self.transport.address_of(peer_id)
            if address is None:
                raise ClusterError(
                    f"peer {peer_id!r} for {object_id!r} has no announced address"
                )
            reply = await self.transport.request(
                address,
                {
                    "type": "store",
                    "object_id": object_id,
                    "key": encode_value(key),
                    "value": encode_value(value),
                    "peer": peer_id,
                    "role": "primary" if index == 0 else "replica",
                },
            )
            if not reply.get("ok", False):
                raise ClusterError(
                    f"store of {object_id!r} on {peer_id!r} failed: "
                    f"{reply.get('error', 'unknown error')} "
                    f"({len(acked)}/{len(targets)} copies durable)"
                )
            acked.append(peer_id)
        return acked

    async def fetch(self, object_id: str) -> Tuple[Optional[str], List[StoredObject]]:
        """Read ``object_id`` from the first live copy holder.

        Walks :meth:`Deployment.read_candidates` (placement order, down
        peers skipped) and issues a ``fetch`` frame to each candidate's
        hosting node until one returns a non-empty copy set.  Returns
        ``(peer_id, objects)`` or ``(None, [])`` when no live peer holds
        the object.
        """
        for peer_id in self.deployment.read_candidates(object_id):
            address = self.transport.address_of(peer_id)
            if address is None:
                continue
            reply = await self.transport.request(
                address, {"type": "fetch", "object_id": object_id, "peer": peer_id}
            )
            if not reply.get("ok", False):
                continue
            objects = objects_from_wire(reply["objects"])
            if objects:
                return peer_id, objects
        return None, []

    # ------------------------------------------------------------------ #
    # gossip control plane (decentralized membership)                      #
    # ------------------------------------------------------------------ #

    def _start_gossip(self) -> None:
        """Boot one SWIM agent per node, every view seeded from bootstrap.

        The bootstrap protocol is centralized (the seed owns the topology);
        from here on liveness is not: each node's agent pings, suspects and
        confirms deaths on its own view, and the views converge through the
        digests piggybacked on every frame.
        """
        self._gossip_rng = DeterministicRNG(self.seed)
        for node in self.nodes:
            self._ensure_agent(node).start()

    def _ensure_agent(self, node: PeerNode) -> SwimNode:
        agent = self.agents.get(node.name)
        if agent is not None:
            return agent
        assert self._gossip_rng is not None
        table = MembershipTable()
        # Seed *before* registering the routing listener: bootstrap entries
        # describe routes that already exist.
        donor = next(iter(self.agents.values()), None)
        if donor is not None:
            # A node added after boot bootstraps by anti-entropy: one full
            # digest from any existing view.
            table.merge(donor.table.digest(None))
        else:
            for peer_id in self.network.peer_ids():
                address = self.transport.address_of(peer_id)
                if address is not None:
                    table.apply(peer_id, ALIVE, 0, address)
        table.on_change(self._on_membership_change)
        agent = SwimNode(
            node.name,
            node.address,
            table,
            self.gossip_config,
            self._gossip_rng.substream("gossip", node.name),
            transport=self.transport,
            hosted=lambda node=node: [
                peer_id for peer_id, home in self.homes.items() if home is node
            ],
            is_up=lambda peer_id: peer_id not in self.down_peers,
            on_event=self._on_gossip_event,
        )
        self.agents[node.name] = agent
        node.on_gossip = self._dispatch_gossip
        return agent

    def _dispatch_gossip(self, node: PeerNode, frame: Dict[str, Any]) -> None:
        """Deliver one gossip cast into the receiving node's agent."""
        agent = self.agents.get(node.name)
        if agent is not None:
            agent.handle_frame(frame)

    def _on_gossip_event(self, kind: str, node: str = "", **fields: Any) -> None:
        """Agent event tap: frame counts to metrics, transitions to the
        flight recorder (``repro replay`` treats the ``gossip`` events as
        forward-compatible timeline annotations)."""
        if kind == EVENT_FRAME:
            op = fields.get("op", "?")
            self.gossip_frames[op] = self.gossip_frames.get(op, 0) + 1
            if self._gossip_counter is not None:
                self._gossip_counter.inc(1.0, op)
            return
        if self.recorder is not None:
            self.recorder.record("gossip", event=kind, node=node, **fields)

    def set_gossip_metrics(self, counter: Any) -> None:
        """Attach the ``gossip_frames_total{type}`` counter (late-bound by
        ``build_observability``; frames sent before the attach backfill)."""
        self._gossip_counter = counter
        for op in (OP_PING, OP_PING_REQ, OP_ACK):
            # Zero-seed the known operations so the series exist in the
            # very first scrape, before any frame happens to be sent.
            counter.child(op)
        for op, count in self.gossip_frames.items():
            counter.inc(float(count), op)

    def _on_membership_change(
        self, peer_id: str, old_state: Optional[str], new_state: str, entry: Any
    ) -> None:
        """Feed membership verdicts into the data plane's routing layer.

        The first view to confirm a death withdraws the victim's route —
        from then on executor sends to it degrade into *immediate* drops,
        so in-flight queries retry/reroute through prefix siblings instead
        of burning per-hop timeouts against a corpse; later confirmations
        find no route left to withdraw.  A later alive
        record (refutation, restart, relocation) of a live, up peer routes
        it to its home again.
        """
        if new_state in (DEAD, LEFT):
            self.transport.unregister(peer_id)
            return
        if new_state != ALIVE:
            return
        node = self.homes.get(peer_id)
        if (
            node is not None
            and self.transport.address_of(peer_id) is None
            and peer_id not in self.down_peers
        ):
            self._place(peer_id, node)

    @property
    def membership(self) -> Optional[MembershipTable]:
        """The observer view (the first node's agent); None without gossip."""
        if not self.nodes:
            return None
        agent = self.agents.get(self.nodes[0].name)
        return agent.table if agent is not None else None

    def membership_counts(self) -> Dict[str, int]:
        """``{alive, suspect, dead, left}`` counts — the gossip observer
        view when the control plane runs, the centralized ``down_peers``
        authority otherwise (same shape either way, for the gauges)."""
        view = self.membership
        if view is not None:
            return view.counts()
        down = len(self.down_peers)
        return {
            "alive": self.network.size - down,
            "suspect": 0,
            "dead": down,
            "left": 0,
        }

    def membership_converged(self, expect_dead: Any = ()) -> bool:
        """:func:`~repro.gossip.membership.views_converged` over every
        agent's view; never true before the control plane has an agent."""
        return bool(self.agents) and views_converged(
            (agent.table for agent in self.agents.values()), expect_dead
        )

    def register_gateway(self, address: Address) -> None:
        """A gateway fronting this cluster announces itself (stats carries
        the list, which is what sessions fail over with)."""
        address = (address[0], int(address[1]))
        if address not in self.gateway_addresses:
            self.gateway_addresses.append(address)

    def unregister_gateway(self, address: Address) -> None:
        address = (address[0], int(address[1]))
        if address in self.gateway_addresses:
            self.gateway_addresses.remove(address)

    # ------------------------------------------------------------------ #
    # live churn: join / leave                                             #
    # ------------------------------------------------------------------ #

    def _require_churn(self, op: str) -> None:
        if not self.started:
            raise ClusterError(f"{op} needs a started cluster")
        if self.storage != "memory":
            raise ClusterError(
                f"{op} needs storage='memory': durable logs are keyed by the "
                "bootstrap-final PeerIDs, and live churn renames zones"
            )

    async def join_peer(self) -> str:
        """Live churn: one new peer joins the running overlay.

        Runs the exact bootstrap join protocol (seeded target draw, zone
        split over TCP, announce), continuing the ``seed → "topology"``
        substream — so a cluster grown by ``k`` joins matches a cluster
        *started* with ``num_peers + k``.  With gossip enabled the new
        peer and the renamed incumbent enter the hosting node's view and
        spread epidemically; the retired id is gossiped ``left``.  Every
        record is bumped past what the view holds: churn recycles PeerIDs,
        so a fresh id may collide with a ``left`` record from an earlier
        departure.
        """
        self._require_churn("join_peer")
        assert self._topology_rng is not None
        assigned, renamed, node = await self._join_one(self._topology_rng)
        if self.gossip_enabled:
            agent = self._ensure_agent(node)
            if not agent.running:
                agent.start()
            agent.table.bump(assigned, ALIVE, node.address)
            for victim, new_id in renamed.items():
                address = self.transport.address_of(new_id)
                if address is not None:
                    agent.table.bump(new_id, ALIVE, address)
                agent.table.bump(victim, LEFT)
        if self.recorder is not None:
            self.recorder.record(
                "gossip", event="join", peer=assigned, renamed=renamed
            )
        return assigned

    async def leave_peer(self, peer_id: str) -> str:
        """Graceful departure: merge the deepest sibling pair, hand the
        leaver's prefix slice to the relocated heir.

        :meth:`~repro.fissione.network.FissioneNetwork.leave` does the
        namespace surgery (the freed sibling adopts the leaver's PeerID
        *and its objects* — the prefix-slice handoff); this method drops
        the leaver's home and route and renames the survivors to match
        (:meth:`_move`), then gossips the changes: retired ids as
        ``left``, the merged parent and the relocated heir as fresh
        ``alive`` records carrying their addresses.  Returns the merged
        parent's PeerID.
        """
        self._require_churn("leave_peer")
        if peer_id in self.down_peers:
            raise ClusterError(
                f"peer {peer_id!r} is down — hard deaths are detected, not left"
            )
        if not self.network.has_peer(peer_id):
            raise ClusterError(f"no peer with id {peer_id!r}")
        renames = self.network.leave(peer_id)
        parent = next(iter(renames.values()))
        del self.homes[peer_id]
        for old_id, new_id in renames.items():
            self._move(old_id, new_id)
        # Unless the freed sibling relocated under the leaver's PeerID
        # (taking over its route), the leaver was a sibling itself and
        # retires with the others.
        retired = set(renames)
        if peer_id not in renames.values():
            retired.add(peer_id)
            self.transport.unregister(peer_id)

        if self.gossip_enabled and self.agents:
            observer = next(iter(self.agents.values()))
            for gone in sorted(retired):
                observer.table.bump(gone, LEFT)
            for heir in renames.values():
                address = self.transport.address_of(heir)
                if address is not None:
                    observer.table.bump(heir, ALIVE, address)
        if self.recorder is not None:
            self.recorder.record(
                "gossip", event="leave", peer=peer_id, merged=parent
            )
        return parent

    # ------------------------------------------------------------------ #
    # crash / restart (kill-restart harness)                               #
    # ------------------------------------------------------------------ #

    def crash_peer(self, peer_id: str) -> None:
        """Hard-kill one peer: volatile state and unsynced writes are lost.

        Models ``kill -9`` of the process hosting the peer (pessimistically
        — even OS-buffered unsynced bytes are dropped): the peer stops
        serving stores and fetches until :meth:`restart_peer`, and its
        backend takes a power failure.
        """
        peer = self.network.peer(peer_id)
        self.down_peers.add(peer_id)
        if self.recorder is not None:
            self.recorder.record("fault", action="crash", peer=peer_id)
        peer.on_power_fail()

    def restart_peer(self, peer_id: str) -> int:
        """Restart a hard-killed peer: reopen its log and replay.

        Returns the number of replayed records.  After this the peer
        serves exactly the writes that were durably acknowledged before
        the crash — nothing more (no resurrection of unsynced state),
        nothing less (no acknowledged write lost).
        """
        peer = self.network.peer(peer_id)
        replayed = peer.on_recover()
        self.replayed_records += replayed
        self.down_peers.discard(peer_id)
        if self.gossip_enabled:
            self._gossip_rejoin(peer_id)
        if self.recorder is not None:
            self.recorder.record(
                "fault", action="restart", peer=peer_id, replayed=replayed
            )
        return replayed

    def _gossip_rejoin(self, peer_id: str) -> None:
        """Announce a restarted peer alive at a fresh incarnation.

        The restart happens *on its home node*, so that node's agent is the
        one entitled to bump the incarnation — the bumped record then
        supersedes any ``dead`` rumor still circulating — and the route
        gossip withdrew is restored at the home first.
        """
        node = self.homes[peer_id]
        self._place(peer_id, node)
        agent = self.agents.get(node.name)
        if agent is not None:
            agent.table.bump(peer_id, ALIVE, node.address)

    def stats(self) -> Dict[str, Any]:
        """Cluster-level statistics for the gateway's ``stats`` command."""
        in_flight = {kind: executor.active_queries for kind, executor in self.executors.items()}
        return {
            "peers": self.network.size,
            "nodes": len(self.nodes),
            "objects": self.network.total_objects(),
            "storage": self.storage,
            "replica_copies": sum(
                peer.backend.replica_count() for peer in self.network.peers()
            ),
            "replayed_records": self.replayed_records,
            "down_peers": len(self.down_peers),
            "messages_sent": self.transport.messages_sent,
            "messages_dropped": self.transport.messages_dropped,
            "pira_in_flight": in_flight.get("pira", 0),
            "mira_in_flight": in_flight.get("mira", 0),
            "gossip": self.gossip_enabled,
            "membership": self.membership_counts(),
            "gossip_frames": int(sum(self.gossip_frames.values())),
            "gateways": [list(address) for address in self.gateway_addresses],
        }

    def __repr__(self) -> str:
        return (
            f"LiveCluster(peers={self.network.size}, nodes={len(self.nodes)}, "
            f"started={self.started})"
        )
