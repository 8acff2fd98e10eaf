""":class:`LiveSession` — the gateway binding of the session API.

One session owns a **pool** of gateway connections, each handshaken for
the gateway's one dialect (protocol v2, JSON frames) and fully
multiplexed: requests are rid-tagged frames, a background reader
re-associates every reply (and streamed ``chunk`` frame) with its
per-request future, so any number of requests can be in flight on one
connection and complete out of order.  The pool spreads load across
connections by picking the least-loaded one per request.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.requests import (
    ApiError,
    Chunk,
    MultiRangeQuery,
    QueryReply,
    RangeQuery,
    Reply,
    Request,
    reply_from_payload,
)
from repro.api.session import ChunkCallback, Session, SessionError
from repro.engine.reporting import EngineReport, QueryJob
from repro.runtime.protocol import (
    GATEWAY_PROTOCOL_V2,
    ProtocolError,
    encode_frame,
    hello_frame,
    read_frame,
)
from repro.wire import decode_value


@dataclass
class _Pending:
    """Client-side state of one in-flight request."""

    request: Request
    future: asyncio.Future
    on_chunk: Optional[ChunkCallback] = None
    chunks: int = 0


class _V2Connection:
    """One handshaken protocol-v2 gateway connection.

    The reader task is the re-association point: every incoming frame
    carries the rid of the request it answers, so replies may arrive in
    any order — the property test in ``tests/property`` hammers exactly
    this path.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        tracing: bool = False,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, _Pending] = {}
        self._rids = itertools.count(1)
        self._reader_task: Optional[asyncio.Task] = None
        self.closed = False
        #: True when the gateway granted the ``tracing`` capability
        self.tracing = tracing

    @classmethod
    async def connect(cls, host: str, port: int, tracing: bool = False) -> "_V2Connection":
        """Open the socket and perform the version handshake."""
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(hello_frame(tracing=tracing)))
        await writer.drain()
        first = await read_frame(reader)
        if first is None:
            raise ConnectionError("gateway closed the connection during the handshake")
        if first.get("type") == "error":
            raise ApiError(f"handshake rejected: {first.get('error', 'unknown error')}")
        if first.get("type") != "welcome" or first.get("version") != GATEWAY_PROTOCOL_V2:
            raise ProtocolError(f"unexpected handshake reply {first!r}")
        # A gateway without a tracer never sends the key: absent means
        # not granted.
        connection = cls(reader, writer, tracing=bool(first.get("tracing", False)))
        connection._reader_task = asyncio.get_running_loop().create_task(
            connection._read_replies()
        )
        return connection

    @property
    def in_flight(self) -> int:
        """Requests awaiting their reply frame on this connection."""
        return len(self._pending)

    # -- submission ----------------------------------------------------------

    def post(self, request: Request, on_chunk: Optional[ChunkCallback] = None) -> asyncio.Future:
        """Register and buffer one request frame; returns its reply future.

        The caller owns flushing (:meth:`drain`) — :meth:`LiveSession.batch`
        posts many requests back-to-back and drains once.
        """
        if self.closed:
            raise ConnectionError("connection to the gateway is closed")
        rid = next(self._rids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = _Pending(request=request, future=future, on_chunk=on_chunk)
        self._writer.write(
            encode_frame({"type": "request", "rid": rid, "request": request.to_wire()})
        )
        return future

    async def drain(self) -> None:
        await self._writer.drain()

    # -- the re-association loop --------------------------------------------

    async def _read_replies(self) -> None:
        error: Optional[Exception] = None
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "chunk":
                    pending = self._pending.get(frame.get("rid"))
                    if pending is not None:
                        pending.chunks += 1
                        if pending.on_chunk is not None:
                            pending.on_chunk(
                                Chunk(
                                    peer=frame.get("peer", ""),
                                    hop=int(frame.get("hop", 0)),
                                    values=[decode_value(v) for v in frame.get("values", [])],
                                    trace_id=frame.get("trace_id"),
                                )
                            )
                    continue
                if kind == "reply":
                    pending = self._pending.pop(frame.get("rid"), None)
                    if pending is not None and not pending.future.done():
                        pending.future.set_result((frame.get("payload", {}), pending.chunks))
                    continue
                if kind == "error":
                    rid = frame.get("rid")
                    message = frame.get("error", "unknown gateway error")
                    if rid is not None:
                        pending = self._pending.pop(rid, None)
                        if pending is not None and not pending.future.done():
                            pending.future.set_exception(ApiError(message))
                        continue
                    if frame.get("fatal"):
                        error = ApiError(f"gateway closed the connection: {message}")
                        break
                    continue
                # Unknown server frame types are ignored for forward
                # compatibility (a v2.x gateway may stream new telemetry).
        except ProtocolError as exc:
            error = exc
        except (ConnectionResetError, OSError) as exc:
            error = ConnectionError(str(exc))
        finally:
            # Runs on EOF, on error AND on cancellation (close() cancels
            # this task): whatever ends the reader must fail every pending
            # future immediately, or their awaiters would sit out the full
            # reply timeout against a connection that can never answer.
            self.closed = True
            failure = error if error is not None else ConnectionError(
                "gateway connection closed with requests in flight"
            )
            for pending in list(self._pending.values()):
                if not pending.future.done():
                    pending.future.set_exception(failure)
            self._pending.clear()

    async def close(self) -> None:
        self.closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass


class LiveSession(Session):
    """Session over a live gateway."""

    backend = "live"

    def __init__(self, timeout: float, tracing: bool = False) -> None:
        self.timeout = timeout
        #: whether this session *asked* for the tracing capability; see
        #: :attr:`tracing_granted` for what the gateway actually gave
        self.tracing = tracing
        self._address: Tuple[str, int] = ("", 0)
        self._v2: List[_V2Connection] = []
        self._pool_target = 0
        #: gateway addresses learned from the cluster's membership view
        #: (every ``stats`` reply refreshes it) — the failover list tried
        #: when pooled connections die
        self._gateways: List[Tuple[str, int]] = []
        self._closed = False
        #: client-side high-water mark of concurrently submitted requests
        self.peak_in_flight = 0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        pool: int = 4,
        timeout: float = 30.0,
        tracing: bool = False,
    ) -> "LiveSession":
        """Open ``pool`` handshaken gateway connections.

        ``timeout`` bounds how long a reply may take when the request
        carries no deadline option (requests with a deadline get that
        deadline plus grace).  ``tracing=True`` negotiates the tracing
        capability so requests with ``options.trace`` get span trees back;
        against a gateway without a tracer the ask degrades silently to
        untraced replies.
        """
        if pool < 1:
            raise SessionError("pool must be at least 1")
        if timeout <= 0:
            raise SessionError("timeout must be positive")
        session = cls(timeout=timeout, tracing=tracing)
        session._address = (host, port)
        session._pool_target = pool
        try:
            for _ in range(pool):
                session._v2.append(await _V2Connection.connect(host, port, tracing=tracing))
        except BaseException:
            await session.close()
            raise
        return session

    @property
    def pool_size(self) -> int:
        """Number of gateway connections this session owns."""
        return len(self._v2)

    @property
    def tracing_granted(self) -> bool:
        """True when every pooled connection negotiated tracing."""
        return bool(self._v2) and all(connection.tracing for connection in self._v2)

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet answered."""
        return sum(connection.in_flight for connection in self._v2)

    # ------------------------------------------------------------------ #
    # submission                                                           #
    # ------------------------------------------------------------------ #

    def _reply_timeout(self, request: Request) -> float:
        deadline = request.options.deadline
        return self.timeout if deadline is None else deadline + self.timeout

    def _gateway_candidates(self) -> List[Tuple[str, int]]:
        """Dial order for a replacement connection: the current gateway
        first, then every gateway the membership view has announced."""
        candidates: List[Tuple[str, int]] = []
        for address in [self._address, *self._gateways]:
            address = (address[0], int(address[1]))
            if address not in candidates:
                candidates.append(address)
        return candidates

    async def _redial_one(self) -> Optional[_V2Connection]:
        for address in self._gateway_candidates():
            try:
                connection = await _V2Connection.connect(*address, tracing=self.tracing)
            except (OSError, ConnectionError, ApiError, ProtocolError):
                continue
            # Future replacements dial the gateway that actually answered
            # first — after a failover the old address is likely dead.
            self._address = address
            return connection
        return None

    async def _pick_connection(self) -> _V2Connection:
        """The least-loaded live connection, replenishing the pool first.

        A closed connection is retired and redialed — against the same
        gateway when it still answers, otherwise against the gateways the
        membership view advertised (see :meth:`stats`).  That is what lets
        a session outlive the death of the gateway it first connected to.
        """
        live = [connection for connection in self._v2 if not connection.closed]
        if len(live) < len(self._v2):
            self._v2 = live
        while len(self._v2) < self._pool_target:
            replacement = await self._redial_one()
            if replacement is None:
                break
            self._v2.append(replacement)
        live = [connection for connection in self._v2 if not connection.closed]
        if not live:
            raise ConnectionError(
                "every pooled gateway connection is closed and no known "
                "gateway answered a redial"
            )
        return min(live, key=lambda connection: connection.in_flight)

    async def _submit_once(
        self, request: Request, on_chunk: Optional[ChunkCallback] = None
    ) -> Reply:
        if self._closed:
            raise SessionError("session is closed")
        connection = await self._pick_connection()
        future = connection.post(request, on_chunk)
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        await connection.drain()
        payload, chunks = await asyncio.wait_for(future, self._reply_timeout(request))
        return reply_from_payload(request, payload, chunks=chunks)

    async def batch(
        self, requests: Sequence[Request], on_chunk: Optional[ChunkCallback] = None
    ) -> List[Reply]:
        """Submit many requests with one flush per connection.

        The whole batch is posted before the first drain — one
        syscall-ish burst instead of a write/await per request.  Note the
        per-request ``replicas``/``retries`` options are *not* applied on
        this path (use :meth:`submit` per request for those).
        """
        if self._closed:
            raise SessionError("session is closed")
        posted = []
        touched = set()
        for request in requests:
            connection = await self._pick_connection()
            posted.append((request, connection.post(request, on_chunk)))
            touched.add(id(connection))
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        for connection in self._v2:
            if id(connection) in touched and not connection.closed:
                await connection.drain()
        return [
            reply_from_payload(request, *await asyncio.wait_for(
                future, self._reply_timeout(request)
            ))
            for request, future in posted
        ]

    # ------------------------------------------------------------------ #
    # membership-fed failover                                              #
    # ------------------------------------------------------------------ #

    @property
    def known_gateways(self) -> List[Tuple[str, int]]:
        """Gateways the membership view has advertised (via ``stats``)."""
        return list(self._gateways)

    async def stats(self) -> Dict[str, Any]:
        """Backend statistics — also refreshes the gateway failover list.

        The cluster's ``stats`` payload carries the addresses of every
        gateway currently fronting it (kept by the membership layer), so
        each stats round trip doubles as service discovery.
        """
        stats = await super().stats()
        gateways = stats.get("gateways")
        if isinstance(gateways, list):
            refreshed = []
            for pair in gateways:
                try:
                    host, port = pair
                    refreshed.append((str(host), int(port)))
                except (TypeError, ValueError):
                    continue
            self._gateways = refreshed
        return stats

    # ------------------------------------------------------------------ #
    # workloads                                                            #
    # ------------------------------------------------------------------ #

    async def run_jobs(
        self,
        jobs: Sequence[QueryJob],
        mode: str = "closed",
        concurrency: int = 8,
        time_scale: float = 0.001,
    ) -> EngineReport:
        """Drive a workload through this session's connection pool (the
        load driver on the asyncio clock)."""
        from repro.runtime.loadgen import run_jobs

        return await run_jobs(
            self, jobs, mode=mode, concurrency=concurrency, time_scale=time_scale
        )

    # ------------------------------------------------------------------ #
    # lifecycle                                                            #
    # ------------------------------------------------------------------ #

    async def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        self._closed = True
        for connection in self._v2:
            await connection.close()
        self._v2.clear()
