"""Concurrent query engine: many overlapping queries on one simulator clock.

The seed executed every range query synchronously to completion, one at a
time.  This engine drives the *resumable* PIRA/MIRA executors
(``system.executors[job.kind].start(origin, ranges, deadline=...)``; the
executor, not the engine, arms and cancels the deadline timer) so that
thousands of queries can be in flight simultaneously:

* **open loop** — jobs arrive at workload-defined times (e.g. a Poisson
  process) regardless of how many queries are already in flight, modelling
  offered load;
* **closed loop** — a fixed number of outstanding queries is maintained;
  each completion immediately launches the next job, modelling a population
  of synchronous clients;
* **churn** — peer joins/departures are scheduled as simulator events and
  interleave with in-flight queries, which survive via the overlay's drop
  accounting.

Because query forwarding is deterministic given the topology and independent
of the simulation clock, every query produces measurements (destinations,
messages, delay hops) **byte-identical** to a sequential run of the same
workload — the property test in ``tests/property`` pins this down.  What
concurrency adds is the *time* dimension: sojourn latencies, throughput and
percentiles under load.
"""

from __future__ import annotations

import itertools
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

from repro.core.armada import ArmadaSystem
from repro.core.errors import ArmadaError
from repro.core.pira import RangeQueryResult
from repro.engine.reporting import CompletedQuery, EngineReport, QueryJob, build_report
from repro.sim.metrics import QueryTracker, safe_ratio
from repro.workloads.arrivals import ChurnEvent

# The job/record/report vocabulary lives in repro.engine.reporting (shared
# with the live runtime); re-exported here for backwards compatibility.
__all__ = ["CompletedQuery", "EngineReport", "QueryEngine", "QueryJob", "offered_load"]


class QueryEngine:
    """Schedules :class:`QueryJob` batches onto an :class:`ArmadaSystem`.

    Example
    -------
    >>> from repro.core.armada import ArmadaSystem
    >>> system = ArmadaSystem(num_peers=64, seed=7, attribute_interval=(0.0, 1000.0))
    >>> _ = system.insert_many([float(v) for v in range(0, 1000, 50)])
    >>> engine = QueryEngine(system)
    >>> jobs = [QueryJob(arrival=float(i), low=100.0, high=200.0) for i in range(5)]
    >>> report = engine.run_open_loop(jobs)
    >>> report.queries
    5
    """

    def __init__(self, system: ArmadaSystem, deadline: Optional[float] = None) -> None:
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        self.system = system
        self.overlay = system.overlay
        self.deadline = deadline
        self.tracker = QueryTracker()
        self._job_ids = itertools.count(1)
        self._completed: List[CompletedQuery] = []
        self._closed_queue: Deque[QueryJob] = deque()
        self._messages_at_start = self.overlay.metrics.counter_value("messages.total")
        self._events_at_start = self.overlay.simulator.processed_events
        self._on_query_complete: List[Callable[[CompletedQuery], None]] = []
        #: job id -> (kind, executor query id) for jobs still in flight
        self._inflight: Dict[int, Tuple[str, int]] = {}

    # -- submission ---------------------------------------------------------

    def submit(self, job: QueryJob) -> None:
        """Schedule one job at its arrival time (relative times in the past
        are launched at the current simulation instant)."""
        now = self.overlay.simulator.now
        at = max(job.arrival, now)
        self.overlay.simulator.schedule_at(at, lambda: self._launch(job), label="query-arrival")

    def submit_many(self, jobs: Sequence[QueryJob]) -> None:
        """Schedule a batch of jobs at their arrival times."""
        for job in jobs:
            self.submit(job)

    def on_query_complete(self, callback: Callable[[CompletedQuery], None]) -> None:
        """Register ``callback(completed)`` fired at each query completion."""
        self._on_query_complete.append(callback)

    # -- churn --------------------------------------------------------------

    def schedule_churn(self, events: Sequence[ChurnEvent]) -> None:
        """Schedule peer joins/departures as simulator events.

        Departed peers are unregistered from the overlay; their in-flight
        messages are counted undeliverable and drop-accounted by the
        executors, so overlapping queries still complete under churn.
        """
        for event in events:
            self.overlay.simulator.schedule_at(
                event.time,
                lambda event=event: self._apply_churn(event),
                label=f"churn:{event.kind}",
            )

    def _apply_churn(self, event: ChurnEvent) -> None:
        if event.kind == "join":
            self.system.add_peers(event.count)
        elif event.kind == "leave":
            self.system.remove_peers(event.count)
        else:
            raise ValueError(f"unknown churn kind {event.kind!r}")

    # -- execution ----------------------------------------------------------

    def run_jobs(
        self,
        jobs: Sequence[QueryJob],
        mode: str = "open",
        concurrency: int = 8,
        churn: Optional[Sequence[ChurnEvent]] = None,
    ) -> EngineReport:
        """One entry point for both loop disciplines (the session API's
        workload vocabulary): ``mode="open"`` fires jobs at their arrival
        times, ``mode="closed"`` maintains ``concurrency`` outstanding
        queries, and ``churn`` events (if any) interleave with either."""
        if churn:
            self.schedule_churn(churn)
        if mode == "open":
            return self.run_open_loop(jobs)
        if mode == "closed":
            return self.run_closed_loop(jobs, concurrency=concurrency)
        raise ValueError(f"unknown workload mode {mode!r} (use 'open' or 'closed')")

    def run_open_loop(self, jobs: Sequence[QueryJob], until: Optional[float] = None) -> EngineReport:
        """Submit all jobs at their arrival times and drain the simulator.

        This models *offered load*: arrivals fire on the workload's clock
        regardless of how many queries are already in flight, so latency
        percentiles in the report reflect queueing under the offered rate.
        With ``until`` the run stops at that simulation instant and the
        report covers whatever completed by then.
        """
        self.submit_many(jobs)
        return self.run(until=until)

    def run_closed_loop(self, jobs: Sequence[QueryJob], concurrency: int) -> EngineReport:
        """Maintain ``concurrency`` outstanding queries until ``jobs`` drain.

        Arrival times are ignored: the first ``concurrency`` jobs launch
        immediately and every completion triggers the next job, as if issued
        by that many synchronous clients.
        """
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        self._closed_queue.extend(jobs)
        for _ in range(min(concurrency, len(self._closed_queue))):
            job = self._closed_queue.popleft()
            self.overlay.simulator.schedule_after(
                0.0, lambda job=job: self._launch(job), label="query-arrival"
            )
        return self.run()

    def run(self, until: Optional[float] = None) -> EngineReport:
        """Drain the simulator and report on everything that completed."""
        self.overlay.run(until=until)
        return self.report()

    def report(self) -> EngineReport:
        """Aggregate statistics for the queries completed so far.

        Message and event counts are deltas since this engine was
        constructed, so several engines can share one long-lived system
        (as the load sweep does, one engine per offered rate) without
        double-counting each other's traffic.
        """
        # Drops of still-in-flight (stalled) queries come from the overlay's
        # per-query ledger, so a query lost to drops is visible even though
        # it never completed.
        inflight_drops = 0
        for kind, query_id in self._inflight.values():
            inflight_drops += self.overlay.drops_for_query(kind, query_id)
        return build_report(
            self.tracker,
            self._completed,
            messages=self.overlay.metrics.counter_value("messages.total") - self._messages_at_start,
            events=self.overlay.simulator.processed_events - self._events_at_start,
            extra_dropped=inflight_drops,
        )

    @property
    def in_flight(self) -> int:
        """Queries started but not yet completed."""
        return self.tracker.in_flight

    # -- internals ----------------------------------------------------------

    def _launch(self, job: QueryJob) -> None:
        now = self.overlay.simulator.now
        origin = job.origin if job.origin is not None else self.system.random_peer_id()
        # Churn may have removed the chosen origin between workload
        # generation and launch; fall back to a live peer.
        if not self.system.network.has_peer(origin):
            origin = self.system.random_peer_id()
        job_id = next(self._job_ids)
        self.tracker.start(job_id, now)
        on_complete = lambda result, job=job, job_id=job_id, started=now: self._finish(
            job, job_id, started, result
        )
        executor = self.system.executors.get(job.kind)
        if executor is None:
            raise ArmadaError(
                "multi-attribute job submitted to a system without attribute_intervals"
            )
        # The executor enforces the deadline: a stalled/slow query is
        # force-completed as failed (partial results kept), never leaked.
        result = executor.start(
            origin, job.query_ranges, deadline=self.deadline, on_complete=on_complete
        )
        # ``start`` may have completed the query synchronously (everything
        # pruned at the origin); only genuinely in-flight queries get drop
        # tracking.
        if executor.is_active(result.query_id):
            self._inflight[job_id] = (job.kind, result.query_id)

    def _finish(self, job: QueryJob, job_id: int, started: float, result: RangeQueryResult) -> None:
        now = self.overlay.simulator.now
        self._inflight.pop(job_id, None)
        # The completed query's drops live on in result.resilience; drop the
        # overlay's ledger entry so long-lived overlays stay O(in-flight).
        self.overlay.clear_query_drops(job.kind, result.query_id)
        record = CompletedQuery(job=job, result=result, started_at=started, completed_at=now)
        self._completed.append(record)
        self.tracker.complete(job_id, now, delay_hops=result.delay_hops, success=result.complete)
        for callback in self._on_query_complete:
            callback(record)
        if self._closed_queue:
            next_job = self._closed_queue.popleft()
            # Launch via the scheduler, not directly: a query that completes
            # synchronously inside start() would otherwise chain one stack
            # frame per job and overflow on large closed-loop workloads.
            self.overlay.simulator.schedule_after(
                0.0, lambda job=next_job: self._launch(job), label="query-arrival"
            )


def offered_load(jobs: Sequence[QueryJob]) -> float:
    """Arrival rate implied by a job batch (jobs per simulated time unit)."""
    if len(jobs) < 2:
        return 0.0
    span = max(job.arrival for job in jobs) - min(job.arrival for job in jobs)
    return safe_ratio(float(len(jobs) - 1), span)
