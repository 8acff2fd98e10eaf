""":class:`SimSession` — the simulator binding of the session API.

Drives an :class:`~repro.core.armada.ArmadaSystem`.  What each request does
is the system's :class:`~repro.core.deployment.Deployment` — the same class,
so the same rules, the live gateway calls: writes are named, placed (a
placement with a crashed peer is refused before any copy) and copied by it,
exact reads walk its failover order, and a query is its one ``launch``
(default origin never a crashed peer, executor by kind, tracer on demand).
This binding only adds the clock: a single query is launched and the
discrete-event overlay drained to completion; workloads go through the
one load driver bound to that clock
(:class:`~repro.engine.query_engine.QueryEngine`).  Latencies and deadlines
are in **simulated time units** (the live binding measures the same fields
in wall-clock seconds); a deadline is handed down to the executor's
``start``, which owns the timer.

The replies are byte-identical in structure to the live binding's — the
same :class:`~repro.core.pira.RangeQueryResult` a gateway would ship over
the wire — so code written against :class:`~repro.api.session.Session`
cannot tell the backends apart except by the clock.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

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
)
from repro.api.session import Session
from repro.core.armada import ArmadaSystem
from repro.core.errors import ArmadaError
from repro.engine.query_engine import QueryEngine
from repro.engine.reporting import CompletedQuery, EngineReport, QueryJob
from repro.obs.spans import Tracer


class SimSession(Session):
    """Session over a simulated :class:`ArmadaSystem`."""

    backend = "sim"

    def __init__(
        self,
        system: ArmadaSystem,
        deadline: Optional[float] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        """``deadline`` (simulated units) is the default per-query bound;
        a request's ``options.deadline`` overrides it.  ``tracer`` (a
        :class:`repro.obs.spans.Tracer`, built when none is passed) collects
        the span trees requests with ``options.trace`` get back, exactly
        like the live gateway's."""
        if deadline is not None and deadline <= 0:
            raise ApiError("deadline must be positive")
        self.system = system
        self.deadline = deadline
        self.tracer = tracer if tracer is not None else Tracer()
        self.queries_served = 0

    # ------------------------------------------------------------------ #
    # single requests                                                      #
    # ------------------------------------------------------------------ #

    async def submit(self, request: Request) -> Reply:
        deployment = self.system.deployment
        try:
            if isinstance(request, (RangeQuery, MultiRangeQuery)):
                return self._run_query(request)
            if isinstance(request, (Insert, MultiInsert)):
                object_id, key, value = request.name(deployment)
                peers = deployment.write(object_id, key, value, request.options.replicas)
                return InsertReply(object_id=object_id, owner=peers[0], replicas=tuple(peers))
            if isinstance(request, Get):
                object_id = deployment.single_namer.name(request.value)
                return request.reply(object_id, *deployment.read(object_id))
            if isinstance(request, Stats):
                stats = dict(self.system.stats())
                stats.update(
                    {
                        "backend": "sim",
                        "queries_served": self.queries_served,
                        "in_flight": sum(
                            executor.active_queries for executor in deployment.executors.values()
                        ),
                    }
                )
                return StatsReply(stats=stats)
            if isinstance(request, Ping):
                return PongReply()
        except ArmadaError as exc:
            # QueryError / NamingError / a refused write from the deployment:
            # the same failures the gateway reports as error payloads.
            raise ApiError(str(exc)) from exc
        raise ApiError(f"SimSession cannot execute request op {request.op!r}")

    def _run_query(self, request: Request) -> QueryReply:
        options = request.options
        completed: list = []

        # The executor's deadline timer is cancelled at completion, so the
        # drain below stops (and the clock with it) when the query does.
        self.system.deployment.launch(
            request.kind,
            request.ranges,
            options.origin,
            options.deadline if options.deadline is not None else self.deadline,
            tracer=self.tracer if options.trace else None,
            on_complete=lambda *completion: completed.append(completion),
        )
        self.system.overlay.run()
        self.queries_served += 1
        return QueryReply.completed(*completed[0])

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
        churn: Optional[Sequence[Any]] = None,
    ) -> EngineReport:
        """Drive a workload with the load driver on the simulator clock.

        The simulator *is* the workload clock, so ``time_scale`` is
        ignored here; open-loop jobs fire at their arrival instants and
        closed-loop jobs maintain ``concurrency`` outstanding queries.
        ``churn`` (:class:`~repro.workloads.arrivals.ChurnEvent` items) is
        a sim-only extra: join/leave events interleaved with the load.
        """
        engine = QueryEngine(self.system, deadline=self.deadline)
        if on_query_complete is not None:
            engine.on_query_complete(on_query_complete)
        try:
            report = engine.run_jobs(jobs, mode=mode, concurrency=concurrency, churn=churn)
        except ValueError as exc:
            raise ApiError(str(exc)) from exc
        self.queries_served += report.queries
        return report
