"""The load driver's contract, once, on a fake clock — plus its asyncio
binding's failure rule on a fake session."""

from __future__ import annotations

import asyncio
import heapq
import itertools
from types import SimpleNamespace

import pytest

from repro.core.pira import RangeQueryResult
from repro.engine import LoadDriver, QueryJob
from repro.runtime.loadgen import run_jobs


class ListClock:
    """A list-backed clock: ``call_at`` queues, :meth:`run` fires in
    (time, insertion) order; past arrivals are clamped to now, ``None`` is
    the next turn."""

    def __init__(self, now: float = 0.0) -> None:
        self.time = now
        self._events = []
        self._order = itertools.count()

    def now(self) -> float:
        return self.time

    def call_at(self, arrival, callback) -> None:
        when = self.time if arrival is None else max(arrival, self.time)
        heapq.heappush(self._events, (when, next(self._order), callback))

    def run(self) -> None:
        while self._events:
            self.time, _order, callback = heapq.heappop(self._events)
            callback()


def result_for(job: QueryJob) -> RangeQueryResult:
    return RangeQueryResult(origin=job.origin or "", query_id=0)


def jobs_at(*arrivals: float):
    """One job per arrival time; ``low`` is the job's index."""
    return [
        QueryJob(arrival=arrival, low=float(index), high=float(index))
        for index, arrival in enumerate(arrivals)
    ]


class TestClosedLoop:
    def test_never_exceeds_concurrency(self):
        clock = ListClock()
        peaks = []

        def launch(job, done):
            peaks.append(driver.in_flight)
            clock.call_at(clock.time + 1.0 + job.low % 3, lambda: done(result_for(job)))

        driver = LoadDriver(clock.now, clock.call_at, launch)
        driver.start(jobs_at(*[0.0] * 40), mode="closed", concurrency=4)
        clock.run()
        assert len(driver.completed) == 40 and driver.in_flight == 0
        assert max(peaks) == 4

    def test_synchronous_completions_do_not_recurse(self):
        clock = ListClock()
        driver = LoadDriver(clock.now, clock.call_at, lambda job, done: done(result_for(job)))
        driver.start(jobs_at(*[0.0] * 2000), mode="closed", concurrency=1)
        clock.run()
        assert len(driver.completed) == 2000

    def test_a_launcher_that_never_completes_stalls_only_its_slot(self):
        clock = ListClock()

        def launch(job, done):
            if job.low != 0.0:
                done(result_for(job))

        driver = LoadDriver(clock.now, clock.call_at, launch)
        driver.start(jobs_at(*[0.0] * 10), mode="closed", concurrency=2)
        clock.run()
        assert len(driver.completed) == 9 and driver.in_flight == 1

    @pytest.mark.parametrize(
        "arguments", [{"mode": "closed", "concurrency": 0}, {"mode": "sideways"}]
    )
    def test_bad_arguments_schedule_nothing(self, arguments):
        clock = ListClock()
        driver = LoadDriver(clock.now, clock.call_at, lambda job, done: None)
        with pytest.raises(ValueError):
            driver.start(jobs_at(0.0, 1.0), **arguments)
        clock.run()
        assert driver.started == 0


class TestOpenLoop:
    def test_launches_in_arrival_order_with_past_arrivals_clamped(self):
        clock = ListClock(now=5.0)
        launched = []

        def launch(job, done):
            launched.append((job.arrival, clock.time))
            done(result_for(job))

        driver = LoadDriver(clock.now, clock.call_at, launch)
        driver.start(jobs_at(9.0, 2.0, 7.0, 0.0), mode="open")
        assert not launched  # call_at never runs a callback inline
        clock.run()
        assert launched == [(2.0, 5.0), (0.0, 5.0), (7.0, 7.0), (9.0, 9.0)]
        assert [record.started_at for record in driver.completed] == [5.0, 5.0, 7.0, 9.0]

    def test_launch_count_and_first_launch_include_stalled_queries(self):
        clock = ListClock(now=3.0)

        def launch(job, done):
            # the job launched first (arrival 4.0) never completes
            if job.arrival != 4.0:
                clock.call_at(clock.time + 2.0, lambda: done(result_for(job)))

        driver = LoadDriver(clock.now, clock.call_at, launch)
        assert driver.first_launch is None
        driver.start(jobs_at(8.0, 4.0, 6.0), mode="open")
        clock.run()
        assert driver.started == 3 and driver.first_launch == 4.0
        assert len(driver.completed) == 2 and driver.in_flight == 1
        assert [record.started_at for record in driver.completed] == [6.0, 8.0]


def test_done_called_twice_raises():
    clock = ListClock()
    dones = []
    driver = LoadDriver(clock.now, clock.call_at, lambda job, done: dones.append(done))
    (job,) = jobs_at(0.0)
    driver.start([job], mode="open")
    clock.run()
    dones[0](result_for(job))
    with pytest.raises(ValueError):
        dones[0](result_for(job))
    assert len(driver.completed) == 1


class FlakySession:
    """``run_job`` raises ``error`` for every third job, else replies."""

    def __init__(self, error: Exception) -> None:
        self.error = error
        self.calls = 0

    async def run_job(self, job: QueryJob):
        self.calls += 1
        fail = self.calls % 3 == 0
        await asyncio.sleep(0)
        if fail:
            raise self.error
        return SimpleNamespace(result=result_for(job))


class TestAsyncioBinding:
    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_transport_failures_are_failed_records_not_lost_ones(self, mode):
        jobs = jobs_at(*[float(i) for i in range(30)])
        report = asyncio.run(
            run_jobs(FlakySession(ConnectionError("link died")), jobs, mode=mode, concurrency=4)
        )
        assert report.queries == len(jobs) and report.started == len(jobs)
        assert report.failed == 10 and report.stalled == 0
        assert sum(record.result.failed for record in report.completed) == 10

    def test_anything_else_propagates_and_leaves_no_task_pending(self):
        async def scenario():
            with pytest.raises(RuntimeError, match="bug"):
                await run_jobs(
                    FlakySession(RuntimeError("bug")), jobs_at(*[0.0] * 30), concurrency=4
                )
            return [task for task in asyncio.all_tasks() if task is not asyncio.current_task()]

        assert asyncio.run(scenario()) == []

    def test_completion_listener_sees_every_record_in_order(self):
        seen = []
        jobs = jobs_at(*[0.0] * 12)
        report = asyncio.run(
            run_jobs(
                FlakySession(ConnectionError()), jobs, concurrency=3, on_query_complete=seen.append
            )
        )
        assert seen == report.completed
