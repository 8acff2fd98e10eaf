""":class:`SimSession` — the simulator binding of the session API.

Drives an :class:`~repro.core.armada.ArmadaSystem` directly: single
requests run the resumable PIRA/MIRA executors to completion on the
discrete-event clock, workloads go through the one load driver bound to
that clock (:class:`~repro.engine.query_engine.QueryEngine`).  Latencies
and deadlines are in **simulated time units** (the live binding measures
the same fields in wall-clock seconds); a deadline is handed to the
executor's ``start``, which owns the timer.

The replies are byte-identical in structure to the live binding's — the
same :class:`~repro.core.pira.RangeQueryResult` a gateway would ship over
the wire — so code written against :class:`~repro.api.session.Session`
cannot tell the backends apart except by the clock.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.api.requests import (
    ApiError,
    Chunk,
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
    Stats,
    StatsReply,
)
from repro.api.session import ChunkCallback, Session
from repro.core.armada import ArmadaSystem
from repro.core.errors import ArmadaError
from repro.core.pira import RangeQueryResult
from repro.engine.query_engine import QueryEngine
from repro.engine.reporting import EngineReport, QueryJob


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
        :class:`repro.obs.spans.Tracer`) makes requests with
        ``options.trace`` return span trees, exactly like a tracing live
        gateway; without one the flag degrades to an untraced reply."""
        if deadline is not None and deadline <= 0:
            raise ApiError("deadline must be positive")
        self.system = system
        self.deadline = deadline
        self.tracer = tracer
        self.queries_served = 0

    # ------------------------------------------------------------------ #
    # single requests                                                      #
    # ------------------------------------------------------------------ #

    async def _submit_once(
        self, request: Request, on_chunk: Optional[ChunkCallback] = None
    ) -> Reply:
        try:
            if isinstance(request, (RangeQuery, MultiRangeQuery)):
                return self._run_query(request, on_chunk)
            if isinstance(request, Insert):
                object_id, peers = self.system.insert_replicated(
                    request.value,
                    payload=float(request.value),
                    replicas=request.options.replicas,
                )
                return InsertReply(
                    object_id=object_id, owner=peers[0], replicas=tuple(peers)
                )
            if isinstance(request, MultiInsert):
                object_id, peers = self.system.insert_multi_replicated(
                    request.values, replicas=request.options.replicas
                )
                return InsertReply(
                    object_id=object_id, owner=peers[0], replicas=tuple(peers)
                )
            if isinstance(request, Get):
                peer_id, objects = self.system.durable_get(request.value)
                return GetReply(
                    object_id=self.system.single_namer.name(request.value),
                    peer=peer_id,
                    values=tuple(stored.value for stored in objects),
                )
            if isinstance(request, Stats):
                stats = dict(self.system.stats())
                stats.update(
                    {
                        "backend": "sim",
                        "queries_served": self.queries_served,
                        "in_flight": sum(
                            executor.active_queries
                            for executor in self.system.executors.values()
                        ),
                    }
                )
                return StatsReply(stats=stats)
            if isinstance(request, Ping):
                return PongReply()
        except ArmadaError as exc:
            # QueryError / NamingError from the executors and namers: the
            # same failures the gateway reports as error payloads.
            raise ApiError(str(exc)) from exc
        raise ApiError(f"SimSession cannot execute request op {request.op!r}")

    def _run_query(
        self, request: Request, on_chunk: Optional[ChunkCallback]
    ) -> QueryReply:
        options = request.options
        origin = options.origin if options.origin is not None else self.system.random_peer_id()
        if not self.system.network.has_peer(origin):
            raise ApiError(f"unknown origin peer {origin!r}")
        executor = self.system.executors.get(request.kind)
        if executor is None:
            raise ApiError("this system was not configured with attribute_intervals")

        simulator = self.system.overlay.simulator
        started = simulator.now
        completed_at = started
        chunks = 0

        def complete(result: RangeQueryResult) -> None:
            nonlocal completed_at
            completed_at = simulator.now

        def destination(peer_id: str, hop: int, new_matches: list) -> None:
            nonlocal chunks
            chunks += 1
            if on_chunk is not None:
                on_chunk(
                    Chunk(
                        peer=peer_id,
                        hop=hop,
                        values=[stored.key for stored in new_matches],
                    )
                )

        traced = options.trace and self.tracer is not None
        if traced and executor.tracer is None:
            executor.set_tracer(self.tracer)
        # The executor's deadline timer is cancelled at completion, so the
        # drain below stops (and the clock with it) when the query does.
        result = executor.start(
            origin,
            request.ranges,
            deadline=options.deadline if options.deadline is not None else self.deadline,
            on_complete=complete,
            on_destination=destination,
            trace=traced,
        )
        self.system.overlay.run()

        self.queries_served += 1
        trace_id: Optional[str] = None
        trace: tuple = ()
        if traced:
            collected = self.tracer.take(f"{executor.message_kind}-{result.query_id}")
            if collected is not None:
                trace_id = collected.trace_id
                trace = tuple(collected.to_wire())
        return QueryReply(
            status=result.status,
            latency=completed_at - started,
            result=result,
            chunks=chunks,
            trace_id=trace_id,
            trace=trace,
        )

    # ------------------------------------------------------------------ #
    # workloads                                                            #
    # ------------------------------------------------------------------ #

    async def run_jobs(
        self,
        jobs: Sequence[QueryJob],
        mode: str = "closed",
        concurrency: int = 8,
        time_scale: float = 0.001,
        churn: Optional[Sequence[Any]] = None,
    ) -> EngineReport:
        """Drive a workload with the load driver on the simulator clock.

        The simulator *is* the workload clock, so ``time_scale`` is
        ignored here; open-loop jobs fire at their arrival instants and
        closed-loop jobs maintain ``concurrency`` outstanding queries.
        ``churn`` (:class:`~repro.workloads.arrivals.ChurnEvent` items) is
        a sim-only extra: join/leave events interleaved with the load.
        """
        try:
            report = QueryEngine(self.system, deadline=self.deadline).run_jobs(
                jobs, mode=mode, concurrency=concurrency, churn=churn
            )
        except ValueError as exc:
            raise ApiError(str(exc)) from exc
        self.queries_served += report.queries
        return report
