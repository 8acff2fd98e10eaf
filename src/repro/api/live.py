""":class:`LiveSession` — the gateway binding of the session API.

One session owns a **pool** of gateway connections, each fully
multiplexed: requests are rid-tagged frames, and each reply resolves its
per-request future as the connection cuts it from the socket, so any
number of requests can be in flight on one connection and complete out of
order.
That machinery is the runtime's one framed connection
(:class:`repro.runtime.protocol.Connection`, the class a peer link is
too); a gateway connection adds only the ``error`` frames the gateway
pushes.  The pool spreads load across connections by picking the
least-loaded one per request.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.api.requests import ApiError, Reply, Request, reply_from_payload
from repro.api.session import Session, SessionError
from repro.engine.reporting import CompletedQuery, EngineReport, QueryJob
from repro.runtime.protocol import Connection, settling


class _Pending(asyncio.Future):
    """The reply future of one gateway request, with its rid."""

    rid = 0


class _V2Connection(Connection):
    """One gateway connection (:meth:`Connection.open` dials it).

    Adds to the framed connection the one frame type only a gateway
    sends, ``error``.  Replies may arrive in any order — the property test
    in ``tests/property`` hammers exactly this path.
    """

    def post(self, request: Request, timeout: Optional[float] = None) -> _Pending:
        """Register and buffer one request frame; returns its reply future,
        which resolves to the ``reply`` frame, or fails with a
        ``TimeoutError`` ``timeout`` seconds after this post (``None``: no
        deadline).

        The caller owns flushing (:meth:`drain`) — :meth:`LiveSession.batch`
        posts many requests back-to-back and drains once.
        """
        pending = _Pending()
        frame = {"type": "request", "request": request.to_wire()}
        # The connection keeps the deadline: no loop timer per request.
        pending.rid = self.post_frame(frame, settling(pending), timeout)
        return pending

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        if frame.get("type") == "error":
            rid = frame.get("rid")
            message = frame.get("error", "unknown gateway error")
            if rid is not None:
                self._settle(rid, None, ApiError(message))
            elif frame.get("fatal"):
                # Ends the reader: every pending future fails with this.
                raise ApiError(f"gateway closed the connection: {message}")
        # Unknown server frame types are ignored for forward
        # compatibility (a newer gateway may push new telemetry).


class LiveSession(Session):
    """Session over a live gateway."""

    backend = "live"

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self._v2: List[_V2Connection] = []
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
    ) -> "LiveSession":
        """Open ``pool`` connections to the gateway at ``host:port``.

        ``timeout`` bounds how long a reply may take when the request
        carries no deadline option (requests with a deadline get that
        deadline plus grace).
        """
        if pool < 1:
            raise SessionError("pool must be at least 1")
        if timeout <= 0:
            raise SessionError("timeout must be positive")
        session = cls(timeout=timeout)
        try:
            for _ in range(pool):
                session._v2.append(await _V2Connection.open(host, port))
        except BaseException:
            await session.close()
            raise
        return session

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

    def _pick_connection(self) -> _V2Connection:
        """The least-loaded open connection of the pool."""
        live = [connection for connection in self._v2 if not connection.closed]
        if not live:
            raise ConnectionError("every pooled gateway connection is closed")
        return min(live, key=lambda connection: connection.in_flight)

    async def submit(self, request: Request) -> Reply:
        return (await self.batch((request,)))[0]

    async def batch(self, requests: Sequence[Request]) -> List[Reply]:
        """Submit many requests with one flush per connection.

        The whole batch is posted before the first drain — one
        syscall-ish burst instead of a write/await per request — and each
        request's timeout runs from its post.
        """
        if self._closed:
            raise SessionError("session is closed")
        posted = []
        for request in requests:
            connection = self._pick_connection()
            posted.append((connection, request, connection.post(request, self._reply_timeout(request))))
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            for connection, _, _ in posted:
                await connection.drain()
            return [
                reply_from_payload(request, (await future).get("payload", {}))
                for _, request, future in posted
            ]
        finally:
            # A timed-out or cancelled request is no longer in flight (a late
            # reply for its rid is ignored), and a failure behind the one
            # raised is not logged as never retrieved.
            for connection, _, future in posted:
                connection.forget(future.rid)
                if future.done() and not future.cancelled():
                    future.exception()

    # ------------------------------------------------------------------ #
    # workloads                                                            #
    # ------------------------------------------------------------------ #

    async def run_jobs(
        self,
        jobs: Sequence[QueryJob],
        mode: str = "closed",
        concurrency: int = 8,
        time_scale: float = 0.001,
        on_query_complete: Optional[Callable[[CompletedQuery], None]] = None,
    ) -> EngineReport:
        """Drive a workload through this session's connection pool (the
        load driver on the asyncio clock)."""
        from repro.runtime.loadgen import run_jobs

        return await run_jobs(
            self,
            jobs,
            mode=mode,
            concurrency=concurrency,
            time_scale=time_scale,
            on_query_complete=on_query_complete,
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
