"""The load driver: many overlapping queries, written once for both clocks.

The seed executed every range query synchronously to completion, one at a
time.  :class:`LoadDriver` keeps thousands in flight, on a clock and a
launcher it is handed, under one of two disciplines:

* **open loop** — jobs arrive at workload-defined times (e.g. a Poisson
  process) regardless of how many queries are already in flight, modelling
  offered load;
* **closed loop** — a fixed number of outstanding queries is maintained;
  each completion launches the next job, modelling a population of
  synchronous clients.

:class:`QueryEngine` binds it to the simulator clock and the resumable
PIRA/MIRA executors (``system.deployment.launch(kind, ranges, origin,
deadline, ...)`` — the one launch every driver calls; the executor, not the
engine, arms and cancels the deadline timer) and adds what only a simulation has: **churn** — peer joins/departures
scheduled as simulator events that interleave with in-flight queries, which
survive because the executors settle every message the overlay loses.  The
asyncio binding is :func:`repro.runtime.loadgen.run_jobs`.

Because query forwarding is deterministic given the topology and independent
of the simulation clock, every query produces measurements (destinations,
messages, delay hops) **byte-identical** to a sequential run of the same
workload — the property test in ``tests/property`` pins this down.  What
concurrency adds is the *time* dimension: sojourn latencies, throughput and
percentiles under load.
"""

from __future__ import annotations

from typing import Callable, Deque, List, Optional, Sequence

from collections import deque

from repro.core.armada import ArmadaSystem
from repro.core.pira import RangeQueryResult
from repro.engine.reporting import CompletedQuery, EngineReport, QueryJob
from repro.sim.metrics import safe_ratio
from repro.workloads.arrivals import ChurnEvent

# The job/record/report vocabulary lives in repro.engine.reporting (shared
# with the live runtime); re-exported here for backwards compatibility.
__all__ = [
    "CompletedQuery", "EngineReport", "LoadDriver", "QueryEngine", "QueryJob", "offered_load",
]


class LoadDriver:
    """Open loop, closed loop and per-query bookkeeping on a borrowed clock.

    ``now()`` reads the clock the run is measured on.  ``call_at(arrival,
    callback)`` runs ``callback`` at workload time ``arrival`` — as soon as
    possible when that is already past, on the next turn of the loop when it
    is ``None`` — and must never run it inline.  ``launch(job, done)``
    starts one query and calls ``done(result)`` exactly once, with its
    :class:`~repro.core.pira.RangeQueryResult`, when it ends (possibly
    before ``launch`` returns); a second call raises :class:`ValueError`.
    """

    def __init__(
        self,
        now: Callable[[], float],
        call_at: Callable[[Optional[float], Callable[[], None]], object],
        launch: Callable[[QueryJob, Callable[[RangeQueryResult], None]], None],
    ) -> None:
        self.now = now
        self.call_at = call_at
        self.launch = launch
        self.completed: List[CompletedQuery] = []
        #: queries launched so far, and the instant of the first launch
        self.started = 0
        self.first_launch: Optional[float] = None
        self._queue: Deque[QueryJob] = deque()
        self._on_query_complete: List[Callable[[CompletedQuery], None]] = []

    def on_query_complete(self, callback: Callable[[CompletedQuery], None]) -> None:
        """Register ``callback(completed)`` fired at each query completion."""
        self._on_query_complete.append(callback)

    def submit(self, job: QueryJob) -> None:
        """Schedule one job at its arrival time (arrivals already in the
        past are launched at the current instant)."""
        self.call_at(job.arrival, lambda: self._start(job))

    def submit_many(self, jobs: Sequence[QueryJob]) -> None:
        """Schedule a batch of jobs at their arrival times."""
        for job in jobs:
            self.submit(job)

    def start(self, jobs: Sequence[QueryJob], mode: str = "closed", concurrency: int = 8) -> None:
        """Hand ``jobs`` to the clock.  ``mode="open"`` fires each at its
        arrival time whatever is in flight, so latency percentiles reflect
        queueing under the offered rate; ``mode="closed"`` ignores arrival
        times: the first ``concurrency`` jobs launch on the next turn and
        every completion triggers the next job."""
        if mode == "open":
            self.submit_many(jobs)
        elif mode == "closed":
            if concurrency < 1:
                raise ValueError("concurrency must be at least 1")
            self._queue.extend(jobs)
            for _ in range(min(concurrency, len(self._queue))):
                self._start_next()
        else:
            raise ValueError(f"unknown workload mode {mode!r} (use 'open' or 'closed')")

    @property
    def in_flight(self) -> int:
        """Queries started but not yet completed."""
        return self.started - len(self.completed)

    def _start_next(self) -> None:
        job = self._queue.popleft()
        # Through the clock, never directly: a query that completes inside
        # launch() would otherwise chain one stack frame per job and
        # overflow on large closed-loop workloads.
        self.call_at(None, lambda: self._start(job))

    def _start(self, job: QueryJob) -> None:
        started = self.now()
        if self.first_launch is None:
            self.first_launch = started
        self.started += 1
        finished = False

        def done(result: RangeQueryResult) -> None:
            nonlocal finished
            if finished:
                raise ValueError(f"done() called twice for {job!r}")
            finished = True
            now = self.now()
            record = CompletedQuery(job=job, result=result, started_at=started, completed_at=now)
            self.completed.append(record)
            for callback in self._on_query_complete:
                callback(record)
            if self._queue:
                self._start_next()

        self.launch(job, done)


class QueryEngine(LoadDriver):
    """The driver on the simulator clock of an :class:`ArmadaSystem`.

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
        simulator = self.overlay.simulator
        super().__init__(
            now=lambda: simulator.now,
            call_at=lambda arrival, callback: simulator.schedule_at(
                simulator.now if arrival is None else max(arrival, simulator.now),
                callback,
                label="query-arrival",
            ),
            launch=self._launch,
        )
        self._messages_at_start = self.overlay.messages_sent
        self._events_at_start = simulator.processed_events

    # -- churn --------------------------------------------------------------

    def schedule_churn(self, events: Sequence[ChurnEvent]) -> None:
        """Schedule peer joins/departures as simulator events.

        Departed peers are unregistered from the overlay; their in-flight
        messages are counted undeliverable and written off by the
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
        """Start ``jobs`` under either discipline (see :meth:`start`), with
        ``churn`` events (if any) interleaved, and drain the simulator."""
        if churn:
            self.schedule_churn(churn)
        self.start(jobs, mode, concurrency)
        return self.run()

    def run_open_loop(self, jobs: Sequence[QueryJob]) -> EngineReport:
        """Submit all jobs at their arrival times and drain the simulator."""
        return self.run_jobs(jobs, mode="open")

    def run_closed_loop(self, jobs: Sequence[QueryJob], concurrency: int) -> EngineReport:
        """Maintain ``concurrency`` outstanding queries until ``jobs`` drain."""
        return self.run_jobs(jobs, mode="closed", concurrency=concurrency)

    def run(self) -> EngineReport:
        """Drain the simulator and report on everything that completed."""
        self.overlay.run()
        return self.report()

    def report(self) -> EngineReport:
        """Aggregate statistics for the queries completed so far.

        Message and event counts are deltas since this engine was
        constructed, so several engines can share one long-lived system
        (as the load sweep does, one engine per offered rate) without
        double-counting each other's traffic.
        """
        return EngineReport(
            completed=list(self.completed),
            started=self.started,
            first_launch=self.first_launch,
            messages=self.overlay.messages_sent - self._messages_at_start,
            events=self.overlay.simulator.processed_events - self._events_at_start,
        )

    # -- internals ----------------------------------------------------------

    def _launch(self, job: QueryJob, done: Callable[[RangeQueryResult], None]) -> None:
        # The engine's own rule: churn may have removed a pinned origin
        # between workload generation and launch; redraw it like an unpinned
        # one.  Everything else is the deployment's launch.
        origin = job.origin
        if origin is not None and not self.system.network.has_peer(origin):
            origin = None
        # The executor enforces the deadline: a stalled/slow query is
        # force-completed as failed (partial results kept), never leaked.
        self.system.deployment.launch(
            job.kind,
            job.query_ranges,
            origin,
            self.deadline,
            on_complete=lambda result, latency, trace: done(result),
        )


def offered_load(jobs: Sequence[QueryJob]) -> float:
    """Arrival rate implied by a job batch (jobs per simulated time unit)."""
    if len(jobs) < 2:
        return 0.0
    span = max(job.arrival for job in jobs) - min(job.arrival for job in jobs)
    return safe_ratio(float(len(jobs) - 1), span)
