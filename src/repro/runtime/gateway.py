"""The gateway: the TCP front door of a live cluster.

A client connection is the runtime's one framed connection, served by a
:class:`~repro.runtime.protocol.FrameServer` (see
:mod:`repro.runtime.protocol`): length-prefixed JSON frames, rid-tagged
requests answered in completion order, many in flight at once.  Each
request frame is dispatched in the loop iteration that reads it; while the
connection's send buffer is full (a client that does not read its
replies), no further request is read from it.

=========================================  ========================================
client frame                                gateway frames
=========================================  ========================================
``{"type":"request","rid":N,                one ``{"type":"reply","rid":N,...}``
  "request":{"op":...}}``                   frame, **in completion order** — many
                                            requests multiplex on one connection
``{"type":"quit"}``                         closes the connection
=========================================  ========================================

There is nothing to negotiate: a request's own fields are its only
switches, so ``"options":{"trace":true}`` gets the query's span tree in its
reply on every connection.

Request objects are the :mod:`repro.api.requests` wire forms —
``range`` / ``mrange`` / ``insert`` / ``minsert`` / ``get`` / ``stats`` /
``ping`` ops with per-request options (``origin``, ``deadline``,
``trace``, ``replicas``) — and so are the replies: the gateway builds the
typed :class:`~repro.api.requests.Reply` and writes its ``to_wire()``, the
same definition the client decodes with.  What a request *does* is not decided
here either: naming a write, and launching a query (origin default and
validation, executor by kind, tracer), are calls into the cluster's
:class:`~repro.core.deployment.Deployment` — the calls ``SimSession`` makes.
The gateway owns the connection: rid table, in-flight counts, deadline
default, metrics and recorder taps, reply writer.

No request costs the gateway an asyncio task.  Each is answered by one
callback: a query's when its executor completes, an insert's or a get's
when the node reply ending its ``store`` / ``fetch`` chain is read
(:meth:`LiveCluster.store` / :meth:`LiveCluster.fetch`), a ping's or a
stats request's inline.  Whatever a launch or a callback raises is that
request's one reply, ``"<Type>: <message>"``.

Bad input has exactly three outcomes, and every one of them is a structured
``error`` frame — the gateway never closes a connection silently:

* **The stream cannot be framed** — a length prefix above the frame limit
  (which is also what the first four bytes of any text line read as): one
  ``"fatal":true`` error frame, written *before* the close.
* **A well-framed body that is not a JSON object**: a non-fatal error
  frame; the length framing is intact, so the connection keeps serving.
* **A bad request inside a good frame**: an error tagged with the ``rid``
  when the failure kills exactly that request (unknown op, malformed
  fields or options, an unrecognised frame type carrying a rid — the
  connection stays open), untagged for a duplicate rid (the *original*
  request still owns it and will get its reply — tagging would make
  clients drop that reply).

Query replies carry the complete
:meth:`~repro.core.pira.RangeQueryResult.to_wire` payload plus the
gateway-measured wall-clock latency, so a client can rebuild the exact
result object the simulator would have produced.  Its ``matches`` travel
as columns (:func:`repro.storage.base.objects_to_wire`), and a column of
floats as packed doubles (:func:`repro.wire.encode_column`): a reply grows
with the range, a dict per match was most of what a wide query cost, and
printing each double as decimal text was most of what was left.

Every in-flight query is guarded by a **deadline** (wall-clock seconds,
per-request option or the gateway default), handed to the executor's
``start``: the executor arms the timer on the cluster's transport and on
expiry force-completes the query as failed with partial results — the same
timer as the engine's simulated deadline.  The same bound is what makes
:meth:`Gateway.shutdown` safe — draining waits until every accepted request
is answered, and the deadline (for a write, its node requests' timeouts)
caps how long that can take.
"""

from __future__ import annotations

import asyncio
import logging
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.api.requests import (
    ApiError,
    Get,
    Insert,
    InsertReply,
    MultiInsert,
    MultiRangeQuery,
    Ping,
    PongReply,
    QueryReply,
    RangeQuery,
    Reply,
    Request,
    Stats,
    StatsReply,
    request_from_wire,
)
from repro.core.errors import ArmadaError
from repro.core.pira import RangeQueryResult
from repro.obs.spans import Tracer
from repro.runtime.cluster import ClusterError, LiveCluster
from repro.runtime.protocol import (
    FrameServer,
    Hangup,
    encode_frame,
    error_frame,
    failure_payload,
)

log = logging.getLogger("repro.gateway")


class Gateway:
    """TCP front door: request table, reply writer."""

    def __init__(
        self,
        cluster: LiveCluster,
        host: str = "127.0.0.1",
        port: int = 0,
        deadline: float = 5.0,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        recorder: Optional[Any] = None,
    ) -> None:
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.cluster = cluster
        self.host = host
        self.requested_port = port
        self.port: Optional[int] = None
        self.deadline = deadline
        self.queries_served = 0
        #: the tracer of queries whose request asks for a trace (one is built
        #: when none is passed; untraced queries never touch it)
        self.tracer = tracer if tracer is not None else Tracer()
        #: optional observability planes (a repro.obs MetricsRegistry /
        #: FlightRecorder); both default off and cost nothing when absent
        self.metrics = metrics
        self.recorder = recorder
        self._init_metrics(metrics)
        self._server: Optional[asyncio.base_events.Server] = None
        #: queries accepted but not yet answered (what ``in_flight`` counts)
        self._queries = 0
        self._peak_inflight = 0
        #: requests of every op accepted but not yet answered, and the future
        #: a drain waits on until that count is back to zero
        self._unanswered = 0
        self._drained: Optional[asyncio.Future] = None
        #: the transport of every open client connection
        self._connections: Set[asyncio.Transport] = set()
        self._closing = False
        self._started_at: Optional[float] = None

    def _init_metrics(self, metrics: Optional[Any]) -> None:
        """Register the gateway's instruments on the shared registry."""
        if metrics is None:
            self._m_frames = None
            self._m_latency = None
            return
        from repro.obs.metrics import HOP_BUCKETS, LATENCY_BUCKETS_S

        # A bound child: the frame-write hot path increments one slot.
        self._m_frames = metrics.counter(
            "gateway_frames_total", "Frames written by the gateway"
        ).child()
        self._m_queries = metrics.counter(
            "gateway_queries_total", "Range queries answered, per executor kind", ("kind",)
        )
        self._m_retries = metrics.counter(
            "query_retries_total", "Per-hop retransmissions across all queries"
        )
        self._m_reroutes = metrics.counter(
            "query_reroutes_total", "Sibling-reroute detours across all queries"
        )
        self._m_drops = metrics.counter(
            "query_drops_total", "Forwarding messages reported dropped"
        )
        self._m_timeouts = metrics.counter(
            "query_timeouts_total", "Per-hop timer expiries across all queries"
        )
        self._m_latency = metrics.histogram(
            "gateway_query_latency_seconds",
            LATENCY_BUCKETS_S,
            "Wall-clock latency of gateway-answered queries",
        )
        self._m_hops = metrics.histogram(
            "gateway_query_hops", HOP_BUCKETS, "Query delay in overlay hops"
        )
        metrics.register_callback(
            "gateway_in_flight",
            lambda: float(self._queries),
            "Queries accepted but not yet answered",
        )
        metrics.register_callback(
            "gateway_peak_in_flight",
            lambda: float(self._peak_inflight),
            "High-water mark of concurrently in-flight queries",
        )
        metrics.register_callback(
            "gateway_connections",
            lambda: float(len(self._connections)),
            "Currently open client connections",
        )

    # ------------------------------------------------------------------ #
    # lifecycle                                                            #
    # ------------------------------------------------------------------ #

    async def start(self) -> "Gateway":
        """Bind the listener (``port=0`` picks an ephemeral port)."""
        self._server = await asyncio.get_running_loop().create_server(
            self._serve, self.host, self.requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = asyncio.get_running_loop().time()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` clients connect to."""
        if self.port is None:
            raise RuntimeError("gateway has not been started")
        return (self.host, self.port)

    @property
    def in_flight(self) -> int:
        """Queries accepted but not yet answered."""
        return self._queries

    @property
    def peak_in_flight(self) -> int:
        """High-water mark of concurrently in-flight queries — the
        observable proof that connections actually multiplex."""
        return self._peak_inflight

    async def shutdown(self, drain: bool = True) -> int:
        """Stop accepting work, optionally drain, then report what drained.

        The sequence the SIGINT/SIGTERM handler relies on:

        1. new connections are refused and already-connected clients get
           ``{"ok": false, "error": "shutting down"}`` for new requests;
        2. with ``drain=True`` every accepted request is answered first —
           each query is bounded by its per-query deadline timer, so the
           wait is at most ``deadline`` seconds, and an insert or a get by
           its RPCs' timeouts;
        3. only then do the cluster's sockets close.

        Returns the number of queries that were in flight when the drain
        began.
        """
        self._closing = True
        draining = self._queries
        server, self._server = self._server, None
        if server is not None:
            # Stop accepting.  Do NOT await wait_closed() yet: since Python
            # 3.12.1 it blocks until every client *connection* closes, and
            # idle clients may hold theirs open indefinitely.
            server.close()
        if drain and self._unanswered:
            self._drained = asyncio.get_running_loop().create_future()
            await self._drained
        # The drain is over; now sever the remaining client connections so
        # the listener can finish closing on every Python version.
        for transport in list(self._connections):
            transport.close()
        if server is not None:
            await server.wait_closed()
        return draining

    # ------------------------------------------------------------------ #
    # connection handling                                                  #
    # ------------------------------------------------------------------ #

    def _serve(self) -> FrameServer:
        """One client connection: multiplexed requests until EOF or ``quit``."""
        pending_rids: Set[int] = set()
        connection = FrameServer(
            lambda frame, body: self._dispatch(frame, connection.transport, pending_rids),
            write=lambda frame: self._write_frame(connection.transport, frame),
            connections=self._connections,
        )
        return connection

    def _write_frame(self, writer: asyncio.Transport, frame: Dict[str, Any]) -> Optional[bytes]:
        """Buffer one frame (a single ``write`` call, so frames never
        interleave however many replies share the connection); returns the
        bytes written, ``None`` on a closing connection."""
        if writer.is_closing():
            return None
        body = encode_frame(frame)
        writer.write(body)
        if self._m_frames is not None:
            self._m_frames.inc()
        return body

    def _dispatch(
        self, frame: Dict[str, Any], writer: asyncio.Transport, pending_rids: Set[int]
    ) -> None:
        """One frame of a connection.  No await anywhere below: the
        answering callback owns the reply, and the connection goes straight
        on to its next frame — that is the multiplexing (frame intake never
        waits on execution)."""
        kind = frame.get("type")
        if kind == "request":
            self._start_request(frame, writer, pending_rids)
        elif kind == "quit":
            raise Hangup()
        else:
            rid = frame.get("rid") if isinstance(frame.get("rid"), int) else None
            error = error_frame(f"unknown frame type {kind!r} (known: request, quit)", rid=rid)
            self._write_frame(writer, error)

    def _start_request(
        self, frame: Dict[str, Any], writer: asyncio.Transport, pending_rids: Set[int]
    ) -> None:
        """Validate the rid and launch the request (no await: this is what
        lets many requests run concurrently on one connection).  Its one
        callback, ``answer``, writes the reply and frees the rid."""
        rid = frame.get("rid")
        if not isinstance(rid, int) or isinstance(rid, bool):
            self._write_frame(writer, error_frame("request frame needs an integer 'rid'"))
            return
        if rid in pending_rids:
            # Deliberately NOT rid-tagged: a rid-tagged error frame means
            # "request <rid> is dead", and clients respond by failing that
            # rid's future — but the rid belongs to the *original* request,
            # which is still running and will get its real reply.  Tagging
            # would make a conforming client drop that reply on the floor.
            self._write_frame(
                writer,
                error_frame(
                    f"duplicate request id {rid}: its reply is still outstanding; "
                    "this frame was ignored"
                ),
            )
            return
        try:
            request = request_from_wire(frame.get("request"))
        except ApiError as exc:
            self._write_frame(writer, error_frame(str(exc), rid=rid))
            return
        if self._closing:
            # Not counted by the drain, so refused rather than severed.
            refusal = {"ok": False, "error": "shutting down"}
            self._write_frame(writer, {"type": "reply", "rid": rid, "payload": refusal})
            return
        pending_rids.add(rid)
        self._unanswered += 1
        answered = False

        def answer(build: Any, result: Any = None, error: Optional[Exception] = None) -> Any:
            """Write the one reply frame, ``build(result)``'s or the failure
            (``error``, or what building or encoding it raised), and return
            its bytes (``None`` if the client has gone or on a repeat call).
            Nothing escapes: out of a node link's ``data_received`` it would end it."""
            nonlocal answered
            if answered:
                return None
            answered = True
            pending_rids.discard(rid)
            self._unanswered -= 1
            if not self._unanswered and self._drained is not None and not self._drained.done():
                self._drained.set_result(None)
            # The payload nests under the envelope so the frame's own
            # "type" stays "reply" for the client.
            try:
                if error is None:
                    frame = {"type": "reply", "rid": rid, "payload": build(result).to_wire()}
                    return self._write_frame(writer, frame)
            except Exception as exc:
                error = exc
            payload = _failure(request, rid, error)
            return self._write_frame(writer, {"type": "reply", "rid": rid, "payload": payload})

        try:
            self._execute(request, answer)
        except Exception as exc:
            answer(None, error=exc)

    # ------------------------------------------------------------------ #
    # requests                                                             #
    # ------------------------------------------------------------------ #

    def _execute(self, request: Request, answer: Callable[..., Any]) -> None:
        """Launch one request; ``answer(build, result, error)`` fires exactly
        once, possibly before this returns.  A launch failure raises."""
        if isinstance(request, (RangeQuery, MultiRangeQuery)):
            self._start_query(request, answer)
        elif isinstance(request, Ping):
            answer(lambda _: PongReply())
        elif isinstance(request, Stats):
            answer(lambda _: StatsReply(stats=self._stats()))
        elif isinstance(request, (Insert, MultiInsert)):
            object_id, key, value = request.name(self.cluster.deployment)

            def inserted(acked: List[str]) -> Reply:
                return InsertReply(object_id=object_id, owner=acked[0], replicas=tuple(acked))

            replicas = request.options.replicas
            self.cluster.store(object_id, key, value, replicas, partial(answer, inserted))
        elif isinstance(request, Get):
            object_id = self.cluster.deployment.single_namer.name(request.value)
            read = partial(answer, lambda found: request.reply(object_id, *found))
            self.cluster.fetch(object_id, read)
        else:
            raise ValueError(f"the gateway cannot execute request op {request.op!r}")

    def _stats(self) -> Dict[str, Any]:
        stats = self.cluster.stats()
        now = asyncio.get_running_loop().time()
        stats.update(
            {
                "queries_served": self.queries_served,
                "in_flight": self._queries,
                "peak_in_flight": self._peak_inflight,
                "connections": len(self._connections),
                "uptime_seconds": (now - self._started_at) if self._started_at is not None else 0.0,
            }
        )
        return stats

    # ------------------------------------------------------------------ #
    # query execution                                                      #
    # ------------------------------------------------------------------ #

    def _observe_query(self, result: RangeQueryResult, latency: float, kind: str) -> None:
        """Feed one completed query into the metrics plane."""
        self._m_queries.inc(1.0, kind)
        self._m_latency.observe(latency)
        self._m_hops.observe(float(result.delay_hops))
        stats = result.resilience
        if stats.retries:
            self._m_retries.inc(float(stats.retries))
        if stats.reroutes:
            self._m_reroutes.inc(float(stats.reroutes))
        if stats.drops:
            self._m_drops.inc(float(stats.drops))
        if stats.timeouts:
            self._m_timeouts.inc(float(stats.timeouts))

    def _start_query(self, request: Request, answer: Callable[..., Any]) -> None:
        """Start one query; ``answer`` fires exactly once with its reply,
        synchronously when the query completes at its origin, from the
        executor's completion callback otherwise.  A query costs the
        executor's one deadline timer, no task.  What it *does* is the
        deployment's one :meth:`~repro.core.deployment.Deployment.launch`
        (origin, executor, tracer), whose validation failures raise before
        anything is registered here; it is traced when its request asks
        (``options.trace``)."""
        options = request.options
        kind = request.kind
        deadline = options.deadline if options.deadline is not None else self.deadline
        recorder = self.recorder
        running = False

        def started(query_id: int, origin: str) -> None:
            nonlocal running
            if recorder is not None:
                # Before the origin fans out: the query's sequence number
                # must precede its sends in the flight-recorder ring.
                recorder.record(
                    "query",
                    kind=kind,
                    query_id=query_id,
                    origin=origin,
                    deadline=deadline,
                    **request.payload(),
                )
            running = True
            self._queries += 1
            self._peak_inflight = max(self._peak_inflight, self._queries)

        def complete(result: RangeQueryResult, latency: float, trace: Any) -> None:
            nonlocal running
            if not running:
                return
            running = False
            self._queries -= 1
            self.queries_served += 1
            if self._m_latency is not None:
                self._observe_query(result, latency, kind)
            written = answer(lambda _: QueryReply.completed(result, latency, trace))
            if recorder is not None:
                # The result is kept as the bytes the connection wrote —
                # keeping the wire object graph alive in the ring would make
                # every GC pass for the rest of the run scan it, and
                # serialising it again just for the ring costs more than the
                # write.  Nothing records between the write and this event.
                recorder.record(
                    "reply",
                    kind=kind,
                    query_id=result.query_id,
                    status=result.status,
                    raw_reply=written,
                )

        try:
            self.cluster.deployment.launch(
                kind,
                request.ranges,
                options.origin,
                deadline,
                tracer=self.tracer if options.trace else None,
                on_start=started,
                on_complete=complete,
            )
        except BaseException:
            if running:  # started, and will never complete
                self._queries -= 1
            raise


def _failure(request: Request, rid: int, exc: Exception) -> Dict[str, Any]:
    """The reply payload of a request that failed with ``exc``."""
    if isinstance(exc, (ValueError, ClusterError, ArmadaError, ApiError)):
        return {"ok": False, "error": str(exc)}
    # Whatever went wrong, the rid gets its one reply frame — an unanswered
    # request would sit out the client's whole timeout.
    log.error("request %s (rid %s) failed unexpectedly", request.op, rid, exc_info=exc)
    return failure_payload(exc)
