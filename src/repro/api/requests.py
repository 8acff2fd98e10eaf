"""The unified request/response vocabulary of the ``repro.api`` layer.

Every operation a client can ask of an Armada deployment — simulated or
live — is a :class:`Request` object:

* :class:`RangeQuery` — single-attribute range ``[low, high]`` via PIRA;
* :class:`MultiRangeQuery` — multi-attribute box query via MIRA;
* :class:`Insert` / :class:`MultiInsert` — object publication;
* :class:`Stats` — backend statistics;
* :class:`Ping` — liveness probe.

Each request carries :class:`RequestOptions`: the per-request knobs
(origin pinning, deadline, write-copy count, tracing); the two
query requests also present ``(kind, ranges)`` — which executor, and its
``start`` argument.  A request serialises to a JSON object
(:meth:`Request.to_wire`) — the exact payload a gateway ``request``
frame carries — and :func:`request_from_wire` rebuilds it on the gateway
side, so the wire format and the in-process API share one definition.

Replies are typed too: :class:`QueryReply` (status, latency, the full
:class:`~repro.core.pira.RangeQueryResult`), :class:`InsertReply`,
:class:`GetReply`, :class:`StatsReply` and :class:`PongReply`.  Like a
request, each defines its wire form once, encoder next to decoder:
``wire_type``, :meth:`Reply.to_wire` (what the gateway writes into a
``reply`` frame) and ``from_wire`` (what :func:`reply_from_payload`
dispatches to on the client).  A query's answer is that one reply.  Both
session bindings return the *same* reply types, which is what lets the
sim≡live equivalence test run entirely through the API layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.deployment import Deployment
from repro.core.pira import RangeQueryResult
from repro.engine.reporting import QueryJob
from repro.wire import decode_value, encode_value


class ApiError(RuntimeError):
    """Malformed requests or undecodable replies at the API layer."""


@dataclass(frozen=True)
class RequestOptions:
    """Per-request execution options, honoured by both session bindings.

    * ``origin`` — the PeerID the query enters the overlay at (``None``
      lets the backend pick a seeded-random origin);
    * ``deadline`` — per-query bound on the *backend's* clock: wall-clock
      seconds live, simulated units in the simulator; ``None`` uses the
      backend default;
    * ``replicas`` — write replication, for inserts only: the object is
      durably appended on the owner plus ``replicas - 1`` prefix-sibling
      peers, and the insert is acknowledged only after every copy synced.
      A query runs once; a query request with ``replicas > 1`` is refused;
    * ``trace`` — ask for a query-scoped span tree in the reply.  Every
      backend honours it.
    """

    origin: Optional[str] = None
    deadline: Optional[float] = None
    replicas: int = 1
    trace: bool = False

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ApiError("deadline must be positive")
        if self.replicas < 1:
            raise ApiError("replicas must be at least 1")

    def to_wire(self) -> Dict[str, Any]:
        """JSON form, omitting defaults (an empty dict is all-defaults)."""
        wire: Dict[str, Any] = {}
        if self.origin is not None:
            wire["origin"] = self.origin
        if self.deadline is not None:
            wire["deadline"] = self.deadline
        if self.replicas != 1:
            wire["replicas"] = self.replicas
        if self.trace:
            wire["trace"] = True
        return wire

    @classmethod
    def from_wire(cls, wire: Optional[Dict[str, Any]]) -> "RequestOptions":
        """Rebuild options from :meth:`to_wire` output (post-JSON)."""
        if wire is None:
            wire = {}
        if not isinstance(wire, dict):
            raise ApiError(f"request options must be a JSON object, got {wire!r}")
        return cls(
            origin=wire.get("origin"),
            deadline=None if wire.get("deadline") is None else float(wire["deadline"]),
            replicas=int(wire.get("replicas", 1)),
            trace=bool(wire.get("trace", False)),
        )


@dataclass(frozen=True)
class Request:
    """Base request: the operation name plus its options."""

    op = "nop"
    options: RequestOptions = field(default_factory=RequestOptions)

    def payload(self) -> Dict[str, Any]:
        """Operation-specific wire fields (subclasses override)."""
        return {}

    def to_wire(self) -> Dict[str, Any]:
        """The JSON object a gateway ``request`` frame carries."""
        wire: Dict[str, Any] = {"op": self.op}
        wire.update(self.payload())
        options = self.options.to_wire()
        if options:
            wire["options"] = options
        return wire


def _check_query(ranges: Sequence[Tuple[float, float]], options: RequestOptions) -> None:
    """Refuse what no query can mean: a NaN or inverted bound, and
    ``replicas`` (write replication) on a query."""
    for low, high in ranges:
        if low != low or high != high:
            raise ApiError(f"range bound is not a number: [{low}, {high}]")
        if high < low:
            raise ApiError(f"range low bound {low} exceeds high bound {high}")
    if options.replicas > 1:
        raise ApiError("replicas applies to inserts only; a query runs once")


@dataclass(frozen=True)
class RangeQuery(Request):
    """Single-attribute range query ``[low, high]`` (PIRA)."""

    op = "range"
    kind = "pira"
    low: float = 0.0
    high: float = 0.0

    def __post_init__(self) -> None:
        _check_query(self.ranges, self.options)

    @property
    def ranges(self) -> Tuple[Tuple[float, float], ...]:
        """The executors' ``ranges`` argument: the one ``(low, high)`` pair."""
        return ((self.low, self.high),)

    def payload(self) -> Dict[str, Any]:
        return {"low": self.low, "high": self.high}


@dataclass(frozen=True)
class MultiRangeQuery(Request):
    """Multi-attribute box query (MIRA): one ``(low, high)`` per dimension."""

    op = "mrange"
    kind = "mira"
    ranges: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        ranges = tuple((float(low), float(high)) for low, high in self.ranges)
        if not ranges:
            raise ApiError("a multi-range query needs at least one range")
        _check_query(ranges, self.options)
        object.__setattr__(self, "ranges", ranges)

    def payload(self) -> Dict[str, Any]:
        return {"ranges": [list(pair) for pair in self.ranges]}


@dataclass(frozen=True)
class Insert(Request):
    """Publish one single-attribute object."""

    op = "insert"
    value: float = 0.0

    def payload(self) -> Dict[str, Any]:
        return {"value": float(self.value)}

    def name(self, deployment: Deployment) -> Tuple[str, Any, Any]:
        """``(object_id, key, value)`` to store: the value is its own payload."""
        return deployment.name_insert(self.value, float(self.value))


@dataclass(frozen=True)
class MultiInsert(Request):
    """Publish one multi-attribute object."""

    op = "minsert"
    values: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        values = tuple(float(value) for value in self.values)
        if not values:
            raise ApiError("a multi-attribute insert needs at least one value")
        object.__setattr__(self, "values", values)

    def payload(self) -> Dict[str, Any]:
        return {"values": list(self.values)}

    def name(self, deployment: Deployment) -> Tuple[str, Any, Any]:
        """``(object_id, key, value)`` to store (no payload)."""
        return deployment.name_multi_insert(self.values)


@dataclass(frozen=True)
class Get(Request):
    """Exact read of one single-attribute value, with replica failover.

    The backend resolves the value's ObjectID and reads from the first
    live copy holder in replica-placement order: the owner's primary
    copy, then prefix siblings' replica copies.  This is how a client
    observes that an acknowledged ``replicas=k`` insert survives the
    owner's crash.
    """

    op = "get"
    value: float = 0.0

    def payload(self) -> Dict[str, Any]:
        return {"value": float(self.value)}

    def reply(self, object_id: str, peer_id: Optional[str], objects: Sequence[Any]) -> "GetReply":
        """The reply for a failover read that found ``objects`` under this
        value's ObjectID on ``peer_id`` (other keys sharing the id drop out)."""
        key = float(self.value)
        return GetReply(
            object_id=object_id,
            peer=peer_id,
            values=tuple(stored.value for stored in objects if stored.key == key),
        )


@dataclass(frozen=True)
class Stats(Request):
    """Backend statistics (cluster + gateway counters live, system stats sim)."""

    op = "stats"


@dataclass(frozen=True)
class Ping(Request):
    """Liveness probe."""

    op = "ping"


#: every concrete request type, keyed by its wire ``op``
REQUEST_TYPES: Dict[str, type] = {
    cls.op: cls
    for cls in (RangeQuery, MultiRangeQuery, Insert, MultiInsert, Get, Stats, Ping)
}


def request_from_wire(wire: Dict[str, Any]) -> Request:
    """Rebuild a :class:`Request` from its :meth:`~Request.to_wire` form.

    Raises :class:`ApiError` on unknown ops or malformed fields — the
    gateway turns that into a structured error frame.
    """
    if not isinstance(wire, dict):
        raise ApiError("request payload must be a JSON object")
    op = wire.get("op")
    cls = REQUEST_TYPES.get(op)
    if cls is None:
        known = ", ".join(sorted(REQUEST_TYPES))
        raise ApiError(f"unknown request op {op!r} (known: {known})")
    try:
        options = RequestOptions.from_wire(wire.get("options"))
        if cls is RangeQuery:
            return RangeQuery(low=float(wire["low"]), high=float(wire["high"]), options=options)
        if cls is MultiRangeQuery:
            return MultiRangeQuery(ranges=wire["ranges"], options=options)
        if cls is Insert:
            return Insert(value=float(wire["value"]), options=options)
        if cls is MultiInsert:
            return MultiInsert(
                values=tuple(float(value) for value in wire["values"]), options=options
            )
        if cls is Get:
            return Get(value=float(wire["value"]), options=options)
    except (KeyError, TypeError, ValueError) as exc:
        raise ApiError(f"malformed {op!r} request: {exc}") from exc
    return cls(options=options)


def request_from_job(job: QueryJob) -> Request:
    """The API request for one :class:`~repro.engine.reporting.QueryJob`."""
    options = RequestOptions(origin=job.origin)
    if job.kind == "mira":
        return MultiRangeQuery(ranges=job.ranges, options=options)
    return RangeQuery(low=job.low, high=job.high, options=options)


# --------------------------------------------------------------------------- #
# replies                                                                      #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Reply:
    """Base reply: everything a session hands back is one of these.

    Each concrete reply defines its wire form once: ``wire_type`` (the payload's
    tag), :meth:`to_wire` (what the gateway writes) and ``from_wire`` (what
    :func:`reply_from_payload` reads), side by side.
    """

    wire_type = ""
    ok: bool = True

    def to_wire(self) -> Dict[str, Any]:
        """The payload of a gateway ``reply`` frame."""
        return {"ok": True, "type": self.wire_type}

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "Reply":
        return cls()


@dataclass(frozen=True)
class QueryReply(Reply):
    """One decoded query response (identical shape on both backends).

    ``status`` is ``"ok"`` (complete), ``"partial"`` (lost subtrees) or
    ``"deadline"``; ``latency`` is measured on the backend's clock
    (wall-clock seconds live, simulated units sim).  ``trace`` holds the
    query's span tree (a list of span dicts — see :mod:`repro.obs.spans`)
    when the request asked for one and the backend granted it; otherwise it
    is empty and ``trace_id`` is ``None``.
    """

    wire_type = "result"
    status: str = "ok"
    latency: float = 0.0
    result: RangeQueryResult = None  # type: ignore[assignment]
    trace_id: Optional[str] = None
    trace: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ok", self.status == "ok")

    @classmethod
    def completed(cls, result: RangeQueryResult, latency: float, trace: Any = None) -> "QueryReply":
        """The reply for one :meth:`Deployment.launch` completion (``trace``
        is the collected :class:`~repro.obs.spans.QueryTrace`, or ``None``)."""
        return cls(
            status=result.status,
            latency=latency,
            result=result,
            trace_id=trace.trace_id if trace is not None else None,
            trace=tuple(trace.to_wire()) if trace is not None else (),
        )

    def to_wire(self) -> Dict[str, Any]:
        wire = dict(
            super().to_wire(),
            status=self.status,
            latency=self.latency,
            result=self.result.to_wire(),
        )
        if self.trace_id is not None:
            wire["trace_id"] = self.trace_id
            wire["trace"] = list(self.trace)
        return wire

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "QueryReply":
        return cls(
            status=payload["status"],
            latency=float(payload["latency"]),
            result=RangeQueryResult.from_wire(payload["result"]),
            trace_id=payload.get("trace_id"),
            trace=tuple(payload.get("trace", ())),
        )


@dataclass(frozen=True)
class InsertReply(Reply):
    """Publication acknowledged: the ObjectID and its owning peer.

    ``replicas`` lists every peer whose store durably appended the object
    before the ack (owner first).
    """

    wire_type = "inserted"
    object_id: str = ""
    owner: str = ""
    replicas: Tuple[str, ...] = ()

    def to_wire(self) -> Dict[str, Any]:
        return dict(
            super().to_wire(),
            object_id=self.object_id,
            owner=self.owner,
            replicas=list(self.replicas),
        )

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "InsertReply":
        return cls(
            object_id=payload["object_id"],
            owner=payload["owner"],
            replicas=tuple(payload.get("replicas", ())),
        )


@dataclass(frozen=True)
class GetReply(Reply):
    """Exact-read result: which peer served it and the matching objects.

    ``peer`` is ``None`` (and ``found`` False) when no live peer holds a
    copy; ``values`` are the stored payloads under the value's ObjectID.
    """

    wire_type = "found"
    object_id: str = ""
    peer: Optional[str] = None
    values: Tuple[Any, ...] = ()

    @property
    def found(self) -> bool:
        """True when some live peer served a copy."""
        return self.peer is not None

    def to_wire(self) -> Dict[str, Any]:
        return dict(
            super().to_wire(),
            object_id=self.object_id,
            peer=self.peer,
            values=[encode_value(value) for value in self.values],
        )

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "GetReply":
        return cls(
            object_id=payload["object_id"],
            peer=payload.get("peer"),
            values=tuple(decode_value(value) for value in payload.get("values", ())),
        )


@dataclass(frozen=True)
class StatsReply(Reply):
    """Backend statistics."""

    wire_type = "stats"
    stats: Dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        return dict(super().to_wire(), stats=self.stats)

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "StatsReply":
        return cls(stats=payload["stats"])


@dataclass(frozen=True)
class PongReply(Reply):
    """Answer to a :class:`Ping`."""

    wire_type = "pong"


#: every concrete reply type, keyed by its wire ``type``
REPLY_TYPES: Dict[str, type] = {
    cls.wire_type: cls for cls in (QueryReply, InsertReply, GetReply, StatsReply, PongReply)
}


def reply_from_payload(request: Request, payload: Any) -> Reply:
    """Decode a gateway ``reply`` frame's payload into the typed reply for ``request``.

    Every way a payload can fail — an error answer, an unknown type, a
    field missing or of the wrong shape — is an :class:`ApiError` for this
    one request, never a ``KeyError`` or ``ValueError`` out of the session.
    """
    if not isinstance(payload, dict):
        raise ApiError(f"malformed reply payload: not a JSON object: {payload!r}")
    if not payload.get("ok", False):
        raise ApiError(payload.get("error", "unknown gateway error"))
    wire_type = payload.get("type")
    cls = REPLY_TYPES.get(wire_type) if isinstance(wire_type, str) else None
    if cls is None:
        raise ApiError(f"undecodable reply type {wire_type!r} for request op {request.op!r}")
    try:
        return cls.from_wire(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ApiError(f"malformed {wire_type} payload: {exc!r}") from exc
