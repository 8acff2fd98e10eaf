"""Time-travel replay: re-execute a flight-recorder dump inside the sim.

The live runtime and the simulator run the *same* PIRA/MIRA handlers over
the same wire forms (the PR 4/5 equivalence property), and the live
cluster draws its topology from the same seeded RNG substream as
:meth:`FissioneNetwork.build`.  A flight-recorder dump therefore contains
everything needed to re-execute a live run deterministically:

1. the ``meta`` event rebuilds the identical overlay topology from the
   recorded seed (:meth:`FissioneNetwork.build`: seed zones + one join per
   RNG draw, exactly the live bootstrap sequence) and the same
   :class:`~repro.core.deployment.Deployment` the live cluster ran — same
   namers, same executors — over a :class:`ReplayTransport`;
2. ``store`` events re-apply the recorded copies through the deployment's
   one copy-write (wire forms, so keys and values round-trip exactly), and
   the ``gossip`` events of a live ``join_peer`` / ``leave_peer`` re-run
   that churn step on the rebuilt overlay (a join continuing the topology
   substream) together with the routes it moved;
3. each ``query`` event re-starts the query on a fresh executor with the
   *recorded* query id — the executor's deterministic send-id counter then
   re-allocates the same send ids the live run used;
4. each ``deliver`` event releases the matching captured message from the
   replay transport's outbox into ``handle_message`` — the recorded global
   sequence order *is* the live interleaving, so the handlers resume in
   the same order they did in production;
5. each ``reply`` event closes the loop: the replayed
   :meth:`~repro.core.pira.RangeQueryResult.to_wire` must equal the
   recorded live reply, field for field.

**Divergence detection** falls out of step 4/5: a recorded delivery whose
``(kind, query_id, send_id)`` is *not* sitting in the replay outbox — or
whose sender/receiver/hop/level/branch differ — means the replayed
execution took a different path than production did, and the replay stops
at that event's sequence number (the live≡sim property turned into a
checked runtime assertion).  Every replayed query is traced, so a dump
yields full :class:`~repro.obs.spans.QueryTrace` span trees for queries
that were never traced live.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.deployment import Deployment
from repro.fissione.network import FissioneError, FissioneNetwork
from repro.kautz import strings as ks
from repro.obs.spans import QueryTrace, Tracer
from repro.sim.rng import DeterministicRNG
from repro.wire import decode_value


class ReplayError(RuntimeError):
    """Raised when a dump cannot be replayed at all (no meta, bad events)."""


class _NullTimer:
    """Inert timer handle: replay never lets wall-clock timers fire."""

    __slots__ = ()

    def cancel(self) -> None:
        pass


_NULL_TIMER = _NullTimer()


class ReplayTransport:
    """The executors' transport seam, driven by recorded events.

    ``send()`` does not deliver: it parks the message in an **outbox**
    keyed by ``(kind, query_id, send_id)`` — the executors' send-id
    counters are deterministic, so the key matches the recorded wire
    frame's ``meta`` exactly when (and only when) the replayed execution
    is on the recorded path.  ``now`` is set from each recorded event's
    monotonic timestamp before it is applied, so replayed span trees carry
    the live timings.
    """

    #: mirrors the live transport it replays (timers never fire here)
    detour_hop_transit = 0.0

    def __init__(self, node_ids: Iterable[str]) -> None:
        self.now = 0.0
        self._nodes = set(node_ids)
        self.outbox: Dict[Tuple[str, int, int], Any] = {}
        self.messages_sent = 0

    def send(self, message: Any) -> None:
        self.messages_sent += 1
        key = (message.kind, message.query_id, message.send)
        self.outbox[key] = message

    def schedule_after(self, delay: float, callback, label: str = "") -> _NullTimer:
        return _NULL_TIMER

    def register(self, node: Any) -> None:
        self._nodes.add(getattr(node, "peer_id", node))

    def unregister(self, node_id: Any) -> None:
        self._nodes.discard(node_id)

    def has_node(self, node_id: Any) -> bool:
        return node_id in self._nodes

    def node_ids(self) -> List[Any]:
        return list(self._nodes)


@dataclass(slots=True)
class Divergence:
    """The first point where the replayed execution left the recorded one."""

    seq: int
    ts: float
    event_type: str
    reason: str
    details: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        lines = [f"divergence at seq {self.seq} ({self.event_type}): {self.reason}"]
        for key, value in self.details.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@dataclass(slots=True)
class ReplayReport:
    """Outcome of replaying one recorded execution."""

    events: int = 0
    queries: int = 0
    replies_checked: int = 0
    stores: int = 0
    faults: int = 0
    timers: int = 0
    #: messages still parked in the outbox when the replay ended (in
    #: flight at dump time — normal for a mid-run dump, never a divergence)
    undelivered: int = 0
    #: events after the first divergence that were not applied
    unapplied: int = 0
    divergence: Optional[Divergence] = None
    #: span trees of every replayed query (traced even if not traced live)
    traces: List[QueryTrace] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.divergence is None


def _canonical(value: Any) -> Any:
    """JSON-normalised form for structural comparison (tuples → lists)."""
    return json.loads(json.dumps(value, sort_keys=True))


def _first_diff(recorded: Any, replayed: Any, path: str = "result") -> str:
    """Human-readable pointer at the first differing field of two wires."""
    if isinstance(recorded, dict) and isinstance(replayed, dict):
        for key in sorted(set(recorded) | set(replayed)):
            if key not in recorded:
                return f"{path}.{key}: absent live, present in replay"
            if key not in replayed:
                return f"{path}.{key}: present live, absent in replay"
            if recorded[key] != replayed[key]:
                return _first_diff(recorded[key], replayed[key], f"{path}.{key}")
        return f"{path}: dicts compare unequal"
    if isinstance(recorded, list) and isinstance(replayed, list):
        if len(recorded) != len(replayed):
            return f"{path}: live has {len(recorded)} entries, replay has {len(replayed)}"
        for index, (a, b) in enumerate(zip(recorded, replayed)):
            if a != b:
                return _first_diff(a, b, f"{path}[{index}]")
        return f"{path}: lists compare unequal"
    return f"{path}: live {recorded!r}, replay {replayed!r}"


class _Replayer:
    """One replay run over one event stream (see :func:`replay_events`)."""

    def __init__(self, events: List[Dict[str, Any]]) -> None:
        self.events = events
        self.report = ReplayReport(events=len(events))
        meta = next((ev for ev in events if ev.get("type") == "meta"), None)
        if meta is None:
            raise ReplayError(
                "dump has no meta event (the recorder ring evicted it — "
                "raise the recorder capacity or dump earlier)"
            )
        self.meta = meta
        self.report.meta = {k: v for k, v in meta.items() if k not in ("seq", "ts", "type")}
        # The live bootstrap draws one join target per peer from the
        # ``seed -> "topology"`` substream, exactly as ``build`` does, and a
        # recorded churn join continues it.
        self.topology_rng = DeterministicRNG(int(meta["seed"])).substream("topology")
        self.network = FissioneNetwork.build(
            num_peers=int(meta["peers"]),
            rng=self.topology_rng,
            object_id_length=int(meta["object_id_length"]),
            base=int(meta.get("base", 2)),
        )
        self.transport = ReplayTransport(self.network.peer_ids())
        self.tracer = Tracer()
        #: peers hard-killed as of the current event (driven by the fault
        #: stream) — the live node records a delivery *before* the cluster's
        #: down-peer check drops it on the floor, so the replay pops the
        #: message but must apply the same drop
        self.down: set = set()
        self.deployment = Deployment(
            self.network,
            self.transport,
            meta["attribute_interval"],
            meta.get("attribute_intervals") or None,
            down=lambda: self.down,
        )
        self.executors = self.deployment.executors
        for executor in self.executors.values():
            executor.set_tracer(self.tracer, all_queries=True)

        #: (kind, query_id) -> the replayed result object
        self.results: Dict[Tuple[str, int], Any] = {}
        #: per-peer recorded store events, for durable-restart re-application
        self.store_log: Dict[str, List[Dict[str, Any]]] = {}

    # -- event application -------------------------------------------------

    def run(self) -> ReplayReport:
        report = self.report
        for index, event in enumerate(self.events):
            self.transport.now = float(event.get("ts", self.transport.now))
            divergence = self._apply(event)
            if divergence is not None:
                report.divergence = divergence
                report.unapplied = len(self.events) - index - 1
                break
        report.undelivered = len(self.transport.outbox)
        report.traces = self.tracer.drain()
        return report

    def _apply(self, event: Dict[str, Any]) -> Optional[Divergence]:
        kind = event.get("type")
        if kind in ("meta", "frame", "dump", "crash", "send"):
            # meta was consumed up front; frame arrivals duplicate deliver
            # events; send events are implied by query/deliver re-execution
            # (their absence from the outbox is caught at the deliver).
            return None
        if kind == "timer":
            self.report.timers += 1
            return None
        if kind == "store":
            return self._apply_store(event)
        if kind == "query":
            return self._apply_query(event)
        if kind == "deliver":
            return self._apply_deliver(event)
        if kind == "drop":
            return self._apply_drop(event)
        if kind == "reply":
            return self._apply_reply(event)
        if kind == "fault":
            return self._apply_fault(event)
        if kind == "gossip":
            return self._apply_churn(event)
        if kind == "route":
            if event.get("action") == "unregister":
                self.transport.unregister(event.get("peer"))
            else:
                self.transport.register(event.get("peer"))
            return None
        return None  # unknown event types are forward-compatible no-ops

    def _diverge(self, event: Dict[str, Any], reason: str, **details: Any) -> Divergence:
        return Divergence(
            seq=int(event.get("seq", -1)),
            ts=float(event.get("ts", 0.0)),
            event_type=str(event.get("type")),
            reason=reason,
            details=details,
        )

    def _write_recorded_copy(self, event: Dict[str, Any]) -> None:
        self.deployment.write_copy(
            event["peer"],
            event.get("role"),
            event["object_id"],
            decode_value(event["key"]),
            decode_value(event["value"]),
        )

    def _apply_store(self, event: Dict[str, Any]) -> Optional[Divergence]:
        self.report.stores += 1
        try:
            self._write_recorded_copy(event)
        except Exception as exc:  # noqa: BLE001 - topology drift is a divergence
            return self._diverge(
                event,
                "recorded store does not apply to the rebuilt topology",
                object_id=event.get("object_id"),
                peer=event.get("peer"),
                error=f"{type(exc).__name__}: {exc}",
            )
        self.store_log.setdefault(event["peer"], []).append(event)
        return None

    def _apply_query(self, event: Dict[str, Any]) -> Optional[Divergence]:
        self.report.queries += 1
        kind = event["kind"]
        query_id = int(event["query_id"])
        executor = self.executors.get(kind)
        if executor is None:
            return self._diverge(
                event,
                f"recorded {kind!r} query but the recorded cluster metadata "
                "configures no such executor",
                query_id=query_id,
            )
        try:
            # The recorded fields are the request's wire payload: ``ranges``
            # for a box query, ``low``/``high`` for a single-attribute one.
            # No deadline: the recorded reply's status applies the cut.
            pairs = event["ranges"] if "ranges" in event else [(event["low"], event["high"])]
            ranges = tuple((float(l), float(h)) for l, h in pairs)
            result = executor.start(event["origin"], ranges, query_id=query_id)
        except Exception as exc:  # noqa: BLE001
            return self._diverge(
                event,
                "recorded query fails to start on the rebuilt topology",
                query_id=query_id,
                error=f"{type(exc).__name__}: {exc}",
            )
        self.results[(kind, query_id)] = result
        return None

    def _apply_deliver(self, event: Dict[str, Any]) -> Optional[Divergence]:
        frame = event["frame"]
        meta = frame.get("meta") or {}
        key = (frame["kind"], int(frame["query_id"]), meta.get("send"))
        message = self.transport.outbox.pop(key, None)
        if message is None:
            return self._diverge(
                event,
                "recorded delivery has no matching replayed send — the "
                "replayed execution never put this message on the wire",
                kind=key[0],
                query_id=key[1],
                send=key[2],
                sender=frame.get("sender"),
                receiver=frame.get("receiver"),
            )
        mismatches = {}
        for field_name, recorded, replayed in (
            ("sender", frame.get("sender"), message.sender),
            ("receiver", frame.get("receiver"), message.receiver),
            ("hop", frame.get("hop"), message.hop),
            ("level", meta.get("level"), message.level),
            ("branch", meta.get("branch"), message.branch),
        ):
            if recorded != replayed:
                mismatches[field_name] = f"live {recorded!r}, replay {replayed!r}"
        if mismatches:
            return self._diverge(
                event,
                "replayed message disagrees with the recorded wire frame",
                kind=key[0],
                query_id=key[1],
                send=key[2],
                **mismatches,
            )
        if frame.get("receiver") in self.down:
            # kill -9 mirror: the live host recorded the arrival, then the
            # dispatch dropped it because the addressed peer was down.
            return None
        executor = self.executors[frame["kind"]]
        executor.handle_message(self.transport, message)
        return None

    def _apply_drop(self, event: Dict[str, Any]) -> Optional[Divergence]:
        key = (event["kind"], int(event["query_id"]), event.get("send"))
        message = self.transport.outbox.pop(key, None)
        if message is None:
            return self._diverge(
                event,
                "recorded drop has no matching replayed send",
                kind=key[0],
                query_id=key[1],
                send=key[2],
            )
        on_drop = message.on_drop
        if on_drop is not None:
            on_drop(message)
        return None

    def _apply_reply(self, event: Dict[str, Any]) -> Optional[Divergence]:
        kind = event["kind"]
        query_id = int(event["query_id"])
        result = self.results.get((kind, query_id))
        if result is None:
            return self._diverge(
                event,
                "recorded reply for a query the dump never started "
                "(its query event was evicted from the ring)",
                query_id=query_id,
            )
        executor = self.executors[kind]
        if event.get("status") == "deadline" and executor.is_active(query_id):
            # The live gateway force-completed this query at its deadline;
            # apply the same cut so the resilience ledgers line up.
            executor.cancel(query_id)
        if executor.is_active(query_id):
            return self._diverge(
                event,
                "query is still in flight at its recorded completion — the "
                "replayed execution expects deliveries the live run never made",
                query_id=query_id,
                outstanding=executor.pending_sends(query_id),
            )
        if event.get("result") is None:
            # The reply was recorded but its response bytes never got
            # written (the client connection died first) — there is no
            # recorded content to diff, and that is not a divergence.
            return None
        recorded = _canonical(event["result"])
        replayed = _canonical(result.to_wire())
        if recorded != replayed:
            return self._diverge(
                event,
                "replayed result differs from the recorded live reply",
                query_id=query_id,
                first_difference=_first_diff(recorded, replayed),
            )
        self.report.replies_checked += 1
        return None

    def _apply_fault(self, event: Dict[str, Any]) -> Optional[Divergence]:
        self.report.faults += 1
        action = event.get("action")
        peer_id = event.get("peer")
        try:
            peer = self.network.peer(peer_id)
        except Exception as exc:  # noqa: BLE001
            return self._diverge(
                event,
                "recorded fault targets a peer missing from the rebuilt topology",
                peer=peer_id,
                error=f"{type(exc).__name__}: {exc}",
            )
        if action == "crash":
            self.down.add(peer_id)
            peer.on_power_fail()
        elif action == "restart":
            self.down.discard(peer_id)
            peer.on_recover()
            if int(event.get("replayed", 0)) > 0:
                # The live peer recovered durably-acknowledged writes from
                # its log; the replay peer (memory backend) re-applies the
                # recorded acknowledged stores instead.
                for store_event in self.store_log.get(peer_id, ()):
                    self._write_recorded_copy(store_event)
        return None

    def _move(self, old_id: str, new_id: str) -> None:
        """``LiveCluster._move`` on the replay's routes and down set."""
        if self.transport.has_node(old_id):
            self.transport.register(new_id)
        else:
            self.transport.unregister(new_id)
        self.transport.unregister(old_id)
        if old_id in self.down:
            self.down.discard(old_id)
            self.down.add(new_id)

    def _apply_churn(self, event: Dict[str, Any]) -> Optional[Divergence]:
        """Re-run a recorded ``join_peer`` / ``leave_peer`` on the rebuilt
        topology (other ``gossip`` events are timeline annotations).  Only
        route *withdrawals* are recorded, so the routes the churn step
        moved and placed live are mirrored here."""
        action, peer_id = event.get("event"), event.get("peer")
        try:
            if action == "join":
                replayed = self.network.join(rng=self.topology_rng).peer_id
                retired = replayed[:-1]
                heir = retired + ks.allowed_symbols(retired[-1], self.network.base)[0]
                renames, recorded = {retired: heir}, peer_id
            elif action == "leave":
                renames = self.network.leave(peer_id)
                replayed, recorded = next(iter(renames.values())), event.get("merged")
            else:
                return None
        except FissioneError as exc:
            return self._diverge(event, f"recorded {action} does not apply", error=str(exc))
        if replayed != recorded:
            return self._diverge(
                event, f"replayed {action} differs", recorded=recorded, replayed=replayed
            )
        for old_id, new_id in renames.items():
            self._move(old_id, new_id)
        if action == "join":
            self.transport.register(replayed)
        elif peer_id not in renames.values():
            self.transport.unregister(peer_id)
        return None


def replay_events(events: List[Dict[str, Any]]) -> ReplayReport:
    """Re-execute a recorded event stream; stop at the first divergence.

    ``events`` must be in recorded order (ascending ``seq``) and contain
    the ``meta`` event; raises :class:`ReplayError` otherwise.
    """
    return _Replayer(events).run()
