"""The live cluster: overlay growth, tenancy, frame handling, churn.

:class:`LiveCluster` runs ``num_peers`` FISSIONE peers as live endpoints:

1. the overlay grows **in process**, the way the simulator grows it: the
   cluster's :class:`~repro.fissione.network.FissioneNetwork` is seeded with
   the initial ``base + 1`` zones, then :meth:`FissioneNetwork.join` splits
   the zone that owns a random key until ``num_peers`` peers exist.  After
   each join the split incumbent is renamed (:meth:`LiveCluster._move`) and
   the joiner is placed on the next node (:meth:`LiveCluster._place`), which
   is what makes it routable;
2. query messages between peers travel as ``msg`` casts over the
   :class:`~repro.runtime.transport.AsyncioTransport` — on the same one
   socket per node as the ``store``/``fetch`` requests — and every node
   hands each frame to the cluster's one handler, which dispatches
   ``msg`` frames into the **same** resumable PIRA/MIRA executors the
   simulator drives.

What a request *does* to the system is not decided here: the cluster builds
one :class:`~repro.core.deployment.Deployment` over its topology and its
asyncio transport — the class :class:`~repro.core.armada.ArmadaSystem`
builds over the overlay — and that owns the namers, the executors, write
placement and its refusal rule, the one copy write, the failover read rule
and the query launch.  What is left in this module is what only a live
cluster has: where each peer lives, the frame handler, the per-copy TCP
round trips of :meth:`LiveCluster.store` / :meth:`LiveCluster.fetch` (whose
far ends, ``_handle_store`` / ``_handle_fetch``, are calls into the
deployment), the gossip binding, and the churn / crash / restart operations.

Tenancy: in FISSIONE a PeerID *is* its zone, so a join renames the split
incumbent and a leave hands the leaver's id to a relocated sibling.  Where
each live PeerID lives is recorded once, in :attr:`LiveCluster.homes`
(PeerID → hosting :class:`PeerNode`), and edited by exactly two methods,
each together with the transport route: :meth:`LiveCluster._place`
(the initial zones, a joiner, a route restored by a restart or an
``alive`` record) and :meth:`LiveCluster._move` (the join split, both
shapes of a leave).  A rename carries the peer's down flag to its heir, so
a crashed zone stays crashed under its new name.  SWIM's ``hosted()``
callback reads the same map.

Determinism: the joins draw their keys from the exact RNG substream
(``seed → "topology"``) that :meth:`FissioneNetwork.build` uses, one draw
per join, so a live cluster and an :class:`~repro.core.armada.ArmadaSystem`
built from the same seed have identical topologies — the foundation of the
sim≡live equivalence test.

Single-process caveat (documented in ``docs/ARCHITECTURE.md``): peers are
asyncio tasks sharing one process, so the topology object and the one
deployment — its executors' per-query state included — are shared memory,
while every forwarding message and every stored or fetched copy genuinely
crosses a TCP socket.
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
from repro.runtime.transport import AsyncioTransport
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
        self._topology_rng: Optional[Any] = None

        self.transport = AsyncioTransport()
        self.network = FissioneNetwork(object_id_length=object_id_length, base=base)
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
        """Place the initial zones and grow the overlay to ``num_peers``.

        A start that fails (a corrupt log, a port that cannot be bound)
        stops whatever it had started before the error propagates.
        """
        if self.started:
            raise ClusterError("cluster already started")
        try:
            self.network.seed_initial()
            if self.num_nodes is not None:
                for index in range(self.num_nodes):
                    await self._start_node(f"node-{index}")
            for peer_id in self.network.peer_ids():
                self._place(peer_id, await self._next_node())
            # Keep the substream: live churn joins (join_peer) continue
            # drawing from it, so a cluster started at N and grown to N+k
            # has the same topology as one started at N+k with the same seed.
            self._topology_rng = DeterministicRNG(self.seed).substream("topology")
            while self.network.size < self.num_peers:
                await self._join()
            if self.storage != "memory":
                self._attach_durable_stores()
            if self.gossip_enabled:
                self._start_gossip()
        except BaseException:
            await self.stop()
            raise
        self.started = True
        return self

    def _attach_durable_stores(self) -> None:
        """Open each peer's WAL, replay it, and make it the peer's backend.

        Runs once the overlay has reached its size, so the log files are
        keyed by *final* PeerIDs (join splits rename peers; logging through
        the renames would orphan half-written files), and before any insert
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
        then hands the recorder to the transport, so wire sends, drops,
        deliveries, store syncs and faults all land in one
        globally-sequenced ring.
        """
        if not self.started:
            raise ClusterError("attach_recorder needs a started cluster (the "
                               "overlay must have reached its size)")
        self.recorder = recorder
        self.transport.recorder = recorder
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
        for peer in self.network.peers():
            peer.backend.close()
        self.started = False

    async def _start_node(self, name: str) -> PeerNode:
        node = await PeerNode(name, self.host, self._on_frame).start()
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
    # overlay growth                                                       #
    # ------------------------------------------------------------------ #

    async def _join(self) -> Tuple[str, str, str, PeerNode]:
        """One FISSIONE join on the ``topology`` substream, made live.

        :meth:`FissioneNetwork.join` splits the zone owning a random key:
        the incumbent keeps the left child under a one-symbol-longer id, so
        its home and route move to that id (before anything can address
        the retired one), and the joiner, the right child, is placed on
        the next node.  The node is ready first, so the split, its record
        and its route changes happen in one step.  Returns ``(joiner,
        retired_id, heir, node)``.
        """
        node = await self._next_node()
        joiner = self.network.join(rng=self._topology_rng).peer_id
        retired = joiner[:-1]
        heir = retired + ks.allowed_symbols(retired[-1], base=self.network.base)[0]
        if self.recorder is not None:
            # Before the route withdrawals it causes: a replay re-runs the
            # join here and mirrors them.
            self.recorder.record("gossip", event="join", peer=joiner, renamed={retired: heir})
        self._move(retired, heir)
        self._place(joiner, node)
        return joiner, retired, heir, node

    # ------------------------------------------------------------------ #
    # the frame handler (shared by every node endpoint)                    #
    # ------------------------------------------------------------------ #

    def _on_frame(
        self, node: PeerNode, frame: Dict[str, Any], body: bytes
    ) -> Optional[Dict[str, Any]]:
        """Every frame a node receives: a request's reply payload, else None.

        A frame with a ``rid`` is a ``store`` or ``fetch`` request.  A
        ``msg`` cast goes to the executors (:meth:`_dispatch_cast`); a
        ``gossip`` cast to the receiving node's own SWIM agent, because
        each node holds its own membership view.
        """
        kind = frame.get("type")
        rid = frame.get("rid")
        recorder = self.recorder
        if rid is not None:
            if recorder is not None:
                recorder.record(
                    "frame", node=node.name, frame_type=kind, kind=frame.get("kind"), rid=rid
                )
            if kind == "store":
                return self._handle_store(frame)
            if kind == "fetch":
                return self._handle_fetch(frame)
            return {"ok": False, "error": f"unknown request type {kind!r}"}
        if kind == "msg":
            if recorder is not None:
                # Recorded before the handler runs: the delivery's sequence
                # number must precede the sends it fans out, because the
                # global seq order is the interleaving the replay engine
                # re-executes.  The ring keeps the *wire bytes* — retaining
                # the decoded frame's object graph would grow every GC pass
                # for the rest of the run; events() re-decodes at dump time.
                recorder.record("deliver", node=node.name, raw=body)
            self._dispatch_cast(frame)
        elif kind == "gossip":
            # Membership transitions are recorded as their own ``gossip``
            # events; the replay engine re-executes the data plane only.
            agent = self.agents.get(node.name)
            if agent is not None:
                agent.handle_frame(frame)
        return None

    def _dispatch_cast(self, frame: Dict[str, Any]) -> None:
        """Deliver one ``msg`` frame into the executor of its kind."""
        if frame.get("receiver") in self.down_peers:
            # kill -9 semantics: the zone's process is gone, so a frame that
            # still reaches its host endpoint dies on the floor.  The sender
            # learns nothing until its own resilience timers fire — or a
            # gossip dead report withdraws the route.
            return
        message = wire_to_message(frame)
        executor = self.executors.get(message.kind)
        if executor is None:
            return
        executor.handle_message(self.transport, message)

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
                    f"peer {peer_id!r} for {object_id!r} has no route"
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
        """Boot one SWIM agent per node, every view seeded from the tenancy map.

        Growth is centralized (one process owns the topology); liveness is
        not: each node's agent pings, suspects and confirms deaths on its
        own view, and the views converge through the digests piggybacked
        on every frame.
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
        # Seed *before* registering the routing listener: the initial
        # entries describe routes that already exist.
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
        return agent

    def _on_gossip_event(self, kind: str, node: str = "", **fields: Any) -> None:
        """Agent event tap: frame counts to metrics, transitions to the
        flight recorder (``repro replay`` treats these ``gossip`` events as
        timeline annotations; only the churn steps' ``join`` / ``leave``
        change its topology)."""
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

    # ------------------------------------------------------------------ #
    # live churn: join / leave                                             #
    # ------------------------------------------------------------------ #

    def _require_churn(self, op: str) -> None:
        if not self.started:
            raise ClusterError(f"{op} needs a started cluster")
        if self.storage != "memory":
            raise ClusterError(
                f"{op} needs storage='memory': durable logs are keyed by the "
                "PeerIDs the cluster started with, and live churn renames zones"
            )

    async def join_peer(self) -> str:
        """Live churn: one new peer joins the running overlay.

        The growth step :meth:`start` runs (:meth:`_join`), continuing
        the ``seed → "topology"`` substream — so a cluster grown by ``k``
        joins matches a cluster *started* with ``num_peers + k``.  With
        gossip enabled the new peer and the renamed incumbent enter the
        hosting node's view and spread epidemically; the retired id is gossiped ``left``.  Every
        record is bumped past what the view holds: churn recycles PeerIDs,
        so a fresh id may collide with a ``left`` record from an earlier
        departure.
        """
        self._require_churn("join_peer")
        joiner, retired, heir, node = await self._join()
        if self.gossip_enabled:
            agent = self._ensure_agent(node)
            if not agent.running:
                agent.start()
            agent.table.bump(joiner, ALIVE, node.address)
            address = self.transport.address_of(heir)
            if address is not None:
                agent.table.bump(heir, ALIVE, address)
            agent.table.bump(retired, LEFT)
        return joiner

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
        if self.recorder is not None:
            # Before the route withdrawals it causes (see _join).
            self.recorder.record("gossip", event="leave", peer=peer_id, merged=parent)
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
        }

    def __repr__(self) -> str:
        return (
            f"LiveCluster(peers={self.network.size}, nodes={len(self.nodes)}, "
            f"started={self.started})"
        )
