"""One Armada deployment: what a request does to it, written once.

A :class:`Deployment` is a FISSIONE topology plus a
:class:`~repro.core.transport.Transport`, and every decision a request
needs above the PIRA/MIRA executors:

* the two namers and the ``executors`` dict, keyed by ``message_kind``;
* naming a write — value(s) in, ``(object_id, key, value)`` out;
* placement (:meth:`Deployment.place`), with the one refusal rule: a write
  whose replica set includes a down peer is refused before any copy is
  appended, so an acknowledged write has every copy on a live peer;
* writing one copy on one peer (:meth:`Deployment.write_copy`: ``put`` or
  ``put_replica`` by role, then ``sync`` — the per-copy durability ack);
* the failover read: :meth:`Deployment.read_candidates` walks the placement
  order skipping down peers, :meth:`Deployment.read_copy` is the one read
  rule (a holder serves its primary copy if it has one, else its replica);
* :meth:`Deployment.launch`: origin default and validation, executor by
  kind, tracer armed on demand, completion → result / latency / trace.

Nothing here awaits: the simulator (:class:`~repro.core.armada.ArmadaSystem`,
over the overlay) calls :meth:`Deployment.write` / :meth:`Deployment.read`
directly; the live cluster (over the asyncio transport) runs the same
placement and candidate walk but crosses a TCP round trip per copy, whose
far end is :meth:`Deployment.write_copy` / :meth:`Deployment.read_copy`;
the flight-recorder replayer re-applies recorded copies through the same
:meth:`Deployment.write_copy`.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ArmadaError, QueryError
from repro.core.mira import MiraExecutor
from repro.core.multiple_hash import MultiAttributeNamer
from repro.core.pira import PiraExecutor, RangeQueryResult
from repro.core.single_hash import SingleAttributeNamer
from repro.core.transport import Transport
from repro.fissione.network import FissioneNetwork
from repro.fissione.peer import StoredObject

Interval = Tuple[float, float]


class Deployment:
    """Namers, executors and the request rules over one topology + transport.

    ``origin_rng`` seeds the default-origin draw (each backend hands in its
    own substream); ``down()`` returns the peers currently crashed — the
    fault injector's set in the simulator, ``LiveCluster.down_peers`` live.
    """

    def __init__(
        self,
        network: FissioneNetwork,
        transport: Transport,
        attribute_interval: Interval,
        attribute_intervals: Optional[Sequence[Interval]] = None,
        origin_rng: Any = None,
        down: Callable[[], Collection[str]] = tuple,
    ) -> None:
        self.network = network
        self.transport = transport
        self.origin_rng = origin_rng
        self.down = down
        length, base = network.object_id_length, network.base
        low, high = attribute_interval
        self.single_namer = SingleAttributeNamer(low=low, high=high, length=length, base=base)
        self.executors: Dict[str, Any] = {  # by message kind
            "pira": PiraExecutor(network, self.single_namer, transport)
        }
        self.multi_namer: Optional[MultiAttributeNamer] = None
        if attribute_intervals is not None:
            self.multi_namer = MultiAttributeNamer(
                intervals=attribute_intervals, length=length, base=base
            )
            self.executors["mira"] = MiraExecutor(network, self.multi_namer, transport)

    # ------------------------------------------------------------------ #
    # writes                                                               #
    # ------------------------------------------------------------------ #

    def name_insert(self, value: float, payload: Any = None) -> Tuple[str, float, Any]:
        """``(object_id, key, value)`` of a single-attribute write."""
        return self.single_namer.name(value), float(value), payload

    def name_multi_insert(
        self, values: Sequence[float], payload: Any = None
    ) -> Tuple[str, Tuple[float, ...], Any]:
        """``(object_id, key, value)`` of a multi-attribute write (the namer
        rejects a point of the wrong dimension)."""
        if self.multi_namer is None:
            raise ArmadaError(
                "this deployment was not configured with attribute_intervals; "
                "multi-attribute publishing is unavailable"
            )
        return self.multi_namer.name(values), tuple(float(v) for v in values), payload

    def place(self, object_id: str, replicas: int = 1) -> List[str]:
        """The peers a write lands on, owner first — or a refusal.

        An acknowledged write means every copy sits on a live peer, so a
        placement that includes a down peer is refused here, before any
        copy is appended anywhere: no partial ghost is left behind.
        """
        targets = self.network.replica_peers(object_id, replicas)
        down = self.down()
        dead = [peer_id for peer_id in targets if peer_id in down] if down else ()
        if dead:
            raise ArmadaError(
                f"store of {object_id!r} failed: peer(s) "
                f"{', '.join(repr(p) for p in dead)} down "
                f"(0/{len(targets)} copies durable)"
            )
        return targets

    def write_copy(
        self, peer_id: str, role: Optional[str], object_id: str, key: Any, value: Any
    ) -> None:
        """Durably append one copy on ``peer_id``.

        ``role`` selects the primary copy (the owner's, scanned by range
        queries) or a ``"replica"`` (a prefix sibling's failover copy).
        Returns only after the peer's backend has synced.
        """
        if peer_id in self.down():
            raise ArmadaError(f"peer {peer_id!r} is down")
        peer = self.network.peer(peer_id)
        if role == "replica":
            peer.put_replica(object_id, key, value)
        else:
            peer.put(object_id, key, value)
        peer.backend.sync()

    def write(self, object_id: str, key: Any, value: Any, replicas: int = 1) -> List[str]:
        """Place and write every copy, in process; returns the peers."""
        targets = self.place(object_id, replicas)
        for index, peer_id in enumerate(targets):
            self.write_copy(peer_id, "replica" if index else "primary", object_id, key, value)
        return targets

    # ------------------------------------------------------------------ #
    # failover reads                                                       #
    # ------------------------------------------------------------------ #

    def read_candidates(self, object_id: str) -> Iterator[str]:
        """Live peers in replica-placement order (owner first).

        A copy written with replication factor k sits on one of the first
        k entries, so the walk finds the nearest live copy; only a miss
        walks all of it.
        """
        for peer_id in self.network.replica_order(object_id):
            if peer_id not in self.down():
                yield peer_id

    def read_copy(self, peer_id: str, object_id: str) -> List[StoredObject]:
        """``peer_id``'s copies of ``object_id``: primary if held, else replica."""
        if peer_id in self.down():
            raise ArmadaError(f"peer {peer_id!r} is down")
        return self.network.peer(peer_id).get_any(object_id)

    def read(self, object_id: str) -> Tuple[Optional[str], List[StoredObject]]:
        """``(peer_id, objects)`` from the first live copy holder, in
        process; ``(None, [])`` when no live peer holds the object."""
        for peer_id in self.read_candidates(object_id):
            found = self.read_copy(peer_id, object_id)
            if found:
                return peer_id, found
        return None, []

    # ------------------------------------------------------------------ #
    # queries                                                              #
    # ------------------------------------------------------------------ #

    def default_origin(self) -> str:
        """A seeded-random origin whose process is up (the same draws as
        an unrestricted one while nothing is down)."""
        down = self.down()
        if not down:
            return self.network.random_peer(self.origin_rng).peer_id
        live = [peer_id for peer_id in self.network.peer_ids() if peer_id not in down]
        if not live:
            raise ArmadaError("every peer is down: no origin to launch the query from")
        return self.origin_rng.choice(live)

    def launch(
        self,
        kind: str,
        ranges: Sequence[Interval],
        origin: Optional[str] = None,
        deadline: Optional[float] = None,
        *,
        tracer: Any = None,
        on_start: Optional[Callable[[int, str], None]] = None,
        on_complete: Optional[Callable[[RangeQueryResult, float, Any], None]] = None,
    ) -> RangeQueryResult:
        """Start one query; every failure raises before anything starts.

        ``origin=None`` draws :meth:`default_origin`; ``deadline`` is in
        transport clock units (``None`` = unbounded); a ``tracer`` traces
        this query (arming the executor on first use).  ``on_start(query_id,
        origin)`` fires once everything is validated, before the origin fans
        out; ``on_complete(result, latency, trace)`` fires exactly once —
        possibly before this returns — with the latency on the transport's
        clock and the collected span tree (``None`` when untraced).
        """
        executor = self.executors.get(kind)
        if executor is None:
            raise ArmadaError(
                "this deployment was not configured with attribute_intervals; "
                "multi-attribute queries are unavailable"
            )
        if origin is None:
            origin = self.default_origin()
        elif not self.network.has_peer(origin):
            raise QueryError(f"unknown origin peer {origin!r}")
        if tracer is not None:
            if executor.tracer is None:
                executor.set_tracer(tracer)
            # An executor keeps the tracer it was first armed with (another
            # session's, the replay's): the span tree is collected there.
            tracer = executor.tracer
        # Pre-allocated so ``on_start`` can record the id before
        # ``executor.start`` fans out from the origin.
        query_id = next(executor._query_ids)
        trace_id = f"{kind}-{query_id}" if tracer is not None else None
        if on_start is not None:
            on_start(query_id, origin)

        transport = self.transport
        started = transport.now
        complete = None
        if on_complete is not None:

            def complete(result: RangeQueryResult) -> None:
                trace = tracer.take(trace_id) if tracer is not None else None
                on_complete(result, transport.now - started, trace)

        return executor.start(
            origin,
            ranges,
            deadline=deadline,
            query_id=query_id,
            on_complete=complete,
            trace=tracer is not None,
        )
