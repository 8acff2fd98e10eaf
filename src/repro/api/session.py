"""The :class:`Session` abstraction: one client API, two backends.

A session is the single way user code talks to an Armada deployment::

    async with await open_session(system) as session:          # simulator
        reply = await session.range(100.0, 200.0)

    async with await LiveSession.connect(host, port) as session:  # live TCP
        reply = await session.range(100.0, 200.0)

Both bindings accept the same :class:`~repro.api.requests.Request`
objects and return the same typed replies, so experiments, load
generators and the CLI are written once against ``Session`` and run
unchanged on either backend — the sim≡live equivalence test does exactly
that.

The base class implements everything that is backend-independent:

* the convenience verbs (:meth:`range`, :meth:`multi_range`,
  :meth:`insert`, :meth:`insert_multi`, :meth:`stats`, :meth:`ping`,
  :meth:`run_job`) as thin wrappers over :meth:`submit`;
* :meth:`batch`: submission of many requests, one after another in
  order (the live binding overrides this to post every request frame
  across its connection pool before a single flush per connection).

Backends implement :meth:`submit` (execute one request, once: a transport
failure or a timeout is the caller's error, never a resubmission — an
insert is not idempotent) and :meth:`run_jobs` (bind the one load driver,
:class:`~repro.engine.query_engine.LoadDriver`, to the backend's clock and
return its :class:`~repro.engine.reporting.EngineReport`).  Neither backend
decides what a request means: ``SimSession`` directly, and ``LiveSession``
through the gateway, end up in one :class:`~repro.core.deployment.Deployment`
(write naming and placement, failover read, query launch), so a rule such
as "the default origin is never a down peer" or "a write with a down target
is refused before any copy" is a property of both by construction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.requests import (
    Get,
    GetReply,
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
    RequestOptions,
    Stats,
    StatsReply,
    request_from_job,
)
from repro.engine.reporting import CompletedQuery, EngineReport, QueryJob


class SessionError(RuntimeError):
    """A session-level failure (closed session, bad session argument)."""


class Session:
    """Abstract client session over one Armada backend."""

    #: ``"sim"`` or ``"live"`` — for reports and stats
    backend = "abstract"

    # ------------------------------------------------------------------ #
    # backend contract                                                     #
    # ------------------------------------------------------------------ #

    async def submit(self, request: Request) -> Reply:
        """Execute ``request`` once and return its typed reply."""
        raise NotImplementedError

    async def run_jobs(
        self,
        jobs: Sequence[QueryJob],
        mode: str = "closed",
        concurrency: int = 8,
        time_scale: float = 0.001,
        on_query_complete: Optional[Callable[[CompletedQuery], None]] = None,
    ) -> EngineReport:
        """Drive a whole workload and report through the shared pipeline.

        ``mode="closed"`` keeps ``concurrency`` queries outstanding
        (synchronous-client population); ``mode="open"`` fires jobs at
        their arrival times (offered load), with ``time_scale`` mapping
        workload time units to the backend clock where needed.
        ``on_query_complete`` is the driver's completion listener: it gets
        each record as its query ends, before the next job launches.  A bad
        argument is an :class:`~repro.api.requests.ApiError` on every
        backend.
        """
        raise NotImplementedError

    async def close(self) -> None:
        """Release backend resources (idempotent)."""

    # ------------------------------------------------------------------ #
    # batches                                                              #
    # ------------------------------------------------------------------ #

    async def batch(self, requests: Sequence[Request]) -> List[Reply]:
        """Submit many requests one after another; replies in request order.

        Every request runs even when an earlier one fails, and the first
        failure is raised once all have run.
        """
        replies: List[Reply] = []
        failure: Optional[Exception] = None
        for request in requests:
            try:
                replies.append(await self.submit(request))
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return replies

    # ------------------------------------------------------------------ #
    # convenience verbs                                                    #
    # ------------------------------------------------------------------ #

    async def range(
        self,
        low: float,
        high: float,
        origin: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> QueryReply:
        """Single-attribute range query ``[low, high]`` via PIRA."""
        options = RequestOptions(origin=origin, deadline=deadline)
        reply = await self.submit(RangeQuery(low=low, high=high, options=options))
        assert isinstance(reply, QueryReply)
        return reply

    async def multi_range(
        self,
        ranges: Sequence[Tuple[float, float]],
        origin: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> QueryReply:
        """Multi-attribute box query via MIRA."""
        options = RequestOptions(origin=origin, deadline=deadline)
        reply = await self.submit(MultiRangeQuery(ranges=tuple(ranges), options=options))
        assert isinstance(reply, QueryReply)
        return reply

    async def insert(self, value: float, replicas: int = 1) -> InsertReply:
        """Publish a single-attribute object.

        ``replicas=k`` durably appends the object on the owner plus
        ``k-1`` prefix-sibling peers and acknowledges only after every
        copy is synced.
        """
        reply = await self.submit(
            Insert(value=float(value), options=RequestOptions(replicas=replicas))
        )
        assert isinstance(reply, InsertReply)
        return reply

    async def insert_multi(self, values: Sequence[float], replicas: int = 1) -> InsertReply:
        """Publish a multi-attribute object (``replicas`` as in :meth:`insert`)."""
        reply = await self.submit(
            MultiInsert(values=tuple(values), options=RequestOptions(replicas=replicas))
        )
        assert isinstance(reply, InsertReply)
        return reply

    async def get(self, value: float) -> GetReply:
        """Exact read of a single-attribute object, with replica failover.

        Returns the stored copies held by the first live peer in
        replica-placement order (owner first); ``reply.found`` is False
        when no live peer holds the value.
        """
        reply = await self.submit(Get(value=float(value)))
        assert isinstance(reply, GetReply)
        return reply

    async def stats(self) -> Dict[str, Any]:
        """Backend statistics."""
        reply = await self.submit(Stats())
        assert isinstance(reply, StatsReply)
        return reply.stats

    async def ping(self) -> bool:
        """Liveness probe."""
        return isinstance(await self.submit(Ping()), PongReply)

    async def run_job(self, job: QueryJob) -> QueryReply:
        """Run one :class:`~repro.engine.reporting.QueryJob` (PIRA or MIRA)."""
        reply = await self.submit(request_from_job(job))
        assert isinstance(reply, QueryReply)
        return reply

    # ------------------------------------------------------------------ #
    # context management                                                   #
    # ------------------------------------------------------------------ #

    async def __aenter__(self) -> "Session":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()
