"""Load generation through the unified session API.

The generator replays the same deterministic workloads the simulated
engine consumes — Poisson/uniform arrivals from
:mod:`repro.workloads.arrivals`, Zipf-skewed range positions, a seeded
PIRA/MIRA mix (:func:`make_mixed_jobs`) — and :func:`run_jobs` drives them
through a live :class:`~repro.api.session.Session` with the *same* driver
that runs them on the simulator: it binds
:class:`~repro.engine.query_engine.LoadDriver` — both loop disciplines and
the per-query bookkeeping, written once — to the asyncio clock
(``loop.time`` / ``loop.call_at``) and to ``session.run_job`` as its
launcher, where :class:`~repro.engine.query_engine.QueryEngine` binds it to
the simulator.  Latencies are wall-clock seconds; the report is the same
:class:`~repro.engine.reporting.EngineReport` everywhere.

A closed loop keeps ``concurrency`` queries outstanding on the shared
session, multiplexed over its pooled connections — ``concurrency`` does not
cost one TCP connection each; an open loop fires jobs at their workload
arrival times, scaled by ``time_scale`` seconds per workload unit.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.api.requests import ApiError
from repro.api.session import Session
from repro.core.pira import RangeQueryResult
from repro.engine.query_engine import LoadDriver
from repro.engine.reporting import CompletedQuery, EngineReport, QueryJob
from repro.runtime.protocol import ProtocolError
from repro.sim.rng import DeterministicRNG
from repro.workloads.arrivals import poisson_arrival_times, zipf_range_queries


def make_mixed_jobs(
    seed: int,
    count: int,
    peer_ids: Sequence[str],
    interval: Tuple[float, float] = (0.0, 1000.0),
    range_size: float = 20.0,
    mira_fraction: float = 0.0,
    mira_dimensions: int = 2,
    rate: float = 50.0,
) -> List[QueryJob]:
    """A deterministic mixed PIRA/MIRA workload with pinned origins.

    Every choice — arrival instants (Poisson at ``rate``), Zipf-skewed
    range positions, origins, which queries are MIRA boxes — is drawn from
    named substreams of ``seed``, so the same call against the simulator's
    peer list and the live cluster's peer list (identical by construction)
    produces the identical job list.
    """
    if not 0.0 <= mira_fraction <= 1.0:
        raise ValueError("mira_fraction must be within [0, 1]")
    if not peer_ids:
        raise ValueError("need at least one peer id for origins")
    low, high = interval
    rng = DeterministicRNG(seed)
    arrivals = poisson_arrival_times(rng.substream("arrivals"), rate, count)
    ranges = zipf_range_queries(
        rng.substream("ranges"), count, range_size, low=low, high=high
    )
    origin_rng = rng.substream("origins")
    mix_rng = rng.substream("mix")
    box_rng = rng.substream("boxes")
    ordered = sorted(peer_ids)
    jobs: List[QueryJob] = []
    for index in range(count):
        origin = origin_rng.choice(ordered)
        job_low, job_high = ranges[index]
        if mix_rng.uniform(0.0, 1.0) < mira_fraction:
            box = tuple(
                (job_low, job_high)
                if dim == 0
                else tuple(sorted((box_rng.uniform(low, high), box_rng.uniform(low, high))))
                for dim in range(mira_dimensions)
            )
            jobs.append(QueryJob(arrival=arrivals[index], origin=origin, ranges=box))
        else:
            jobs.append(
                QueryJob(arrival=arrivals[index], origin=origin, low=job_low, high=job_high)
            )
    return jobs


async def run_jobs(
    session: Session,
    jobs: Sequence[QueryJob],
    mode: str = "closed",
    concurrency: int = 8,
    time_scale: float = 0.001,
    on_query_complete: Optional[Callable[[CompletedQuery], None]] = None,
) -> EngineReport:
    """Drive ``jobs`` through one session on the asyncio clock.

    ``mode`` and ``concurrency`` are the driver's (see
    :meth:`LoadDriver.start <repro.engine.query_engine.LoadDriver.start>`);
    ``time_scale`` converts open-loop arrival times to seconds (the default
    compresses one workload unit to a millisecond); ``on_query_complete``
    is called with each record as its query ends.  Bad arguments raise
    :class:`~repro.api.requests.ApiError`, as on the simulator.
    """
    if time_scale <= 0:
        raise ApiError("time_scale must be positive")
    loop = asyncio.get_running_loop()
    epoch = loop.time()
    first_arrival = min((job.arrival for job in jobs), default=0.0)
    finished: "asyncio.Future[None]" = loop.create_future()
    timers: List[asyncio.Handle] = []
    tasks: Set["asyncio.Task[None]"] = set()

    def call_at(arrival: Optional[float], callback: Callable[[], None]) -> None:
        if arrival is None:
            timers.append(loop.call_soon(callback))
        else:
            timers.append(loop.call_at(epoch + (arrival - first_arrival) * time_scale, callback))

    async def run_one(job: QueryJob, done: Callable[[RangeQueryResult], None]) -> None:
        try:
            result = (await session.run_job(job)).result
        except (ApiError, ProtocolError, ConnectionError, asyncio.TimeoutError):
            # The gateway refused (shutdown), the link died or the reply never
            # came: account the query as failed rather than losing it from the
            # report.
            result = RangeQueryResult(origin=job.origin or "", query_id=-1)
            result.resilience.deadline_expired = True
        done(result)

    def launch(job: QueryJob, done: Callable[[RangeQueryResult], None]) -> None:
        task = loop.create_task(run_one(job, done))
        tasks.add(task)
        task.add_done_callback(settle)

    def settle(task: "asyncio.Task[None]") -> None:
        tasks.discard(task)
        if finished.done() or task.cancelled():
            return
        if task.exception() is not None:
            # Anything run_one does not catch ends the run.
            finished.set_exception(task.exception())
        elif len(driver.completed) == len(jobs):
            finished.set_result(None)

    driver = LoadDriver(loop.time, call_at, launch)
    if on_query_complete is not None:
        driver.on_query_complete(on_query_complete)
    try:
        driver.start(jobs, mode, concurrency)
    except ValueError as exc:
        raise ApiError(str(exc)) from exc
    try:
        if jobs:
            await finished
    finally:
        for timer in timers:
            timer.cancel()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    return EngineReport(
        completed=list(driver.completed),
        started=driver.started,
        first_launch=driver.first_launch,
        messages=sum(record.result.messages for record in driver.completed),
    )
