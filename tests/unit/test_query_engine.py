"""Unit tests for the concurrent query engine."""

from __future__ import annotations

import pytest

from repro.core.armada import ArmadaSystem
from repro.core.pira import RangeQueryResult
from repro.engine import (
    CompletedQuery,
    EngineReport,
    QueryEngine,
    QueryJob,
    score_completeness,
)
from repro.faults import CrashStop, FaultPlan, IidLoss, ResiliencePolicy, ResilienceStats
from repro.sim.rng import DeterministicRNG
from repro.workloads.arrivals import ChurnEvent, periodic_churn, poisson_arrival_times


def build_system(num_peers: int = 96, seed: int = 5, multi: bool = False) -> ArmadaSystem:
    intervals = ((0.0, 1000.0), (0.0, 1000.0)) if multi else None
    system = ArmadaSystem(
        num_peers=num_peers,
        seed=seed,
        attribute_interval=(0.0, 1000.0),
        attribute_intervals=intervals,
    )
    system.insert_many([float(value) for value in range(0, 1000, 10)])
    return system


def make_jobs(system: ArmadaSystem, count: int, rate: float = 4.0, seed: int = 11):
    rng = DeterministicRNG(seed)
    arrivals = poisson_arrival_times(rng.substream("arrivals"), rate, count)
    origin_rng = rng.substream("origins")
    jobs = []
    for arrival in arrivals:
        origin = system.network.random_peer(origin_rng).peer_id
        low = origin_rng.uniform(0.0, 900.0)
        jobs.append(QueryJob(arrival=arrival, origin=origin, low=low, high=low + 60.0))
    return jobs


class TestOpenLoop:
    def test_all_jobs_complete(self):
        system = build_system()
        engine = QueryEngine(system)
        jobs = make_jobs(system, 40)
        report = engine.run_open_loop(jobs)
        assert report.queries == 40
        assert report.started == 40
        assert engine.in_flight == 0

    def test_queries_overlap_in_flight(self):
        """At a high arrival rate, many queries must be in flight at once."""
        system = build_system()
        engine = QueryEngine(system)
        peak = 0

        def watch(_record: CompletedQuery) -> None:
            nonlocal peak
            peak = max(peak, engine.in_flight)

        engine.on_query_complete(watch)
        jobs = [QueryJob(arrival=0.0, low=100.0 + i, high=300.0 + i) for i in range(20)]
        engine.run_open_loop(jobs)
        # all 20 arrive at t=0; at the first completion 19 others are in flight
        assert peak >= 10

    def test_latency_equals_hop_delay_in_open_loop(self):
        """With hop latency 1.0 and no queueing, sojourn time == delay hops."""
        system = build_system()
        engine = QueryEngine(system)
        jobs = make_jobs(system, 25)
        report = engine.run_open_loop(jobs)
        for record in report.completed:
            assert record.latency == pytest.approx(float(record.result.delay_hops))

    def test_report_counters(self):
        system = build_system()
        engine = QueryEngine(system)
        report = engine.run_open_loop(make_jobs(system, 10))
        assert report.messages > 0
        assert report.events >= report.messages
        assert report.throughput > 0
        assert set(report.latency_percentiles) == {"p50", "p95", "p99"}
        summary = report.as_dict()
        assert summary["queries"] == 10.0
        assert "latency_p95" in summary
        assert "delay_p99" in summary
        assert "queries completed" in report.format()

    def test_past_arrivals_launch_immediately(self):
        system = build_system()
        system.overlay.simulator.schedule_at(5.0, lambda: None)
        system.overlay.run()
        engine = QueryEngine(system)
        report = engine.run_open_loop([QueryJob(arrival=0.0, low=10.0, high=80.0)])
        assert report.queries == 1
        assert report.completed[0].started_at >= 5.0


class TestClosedLoop:
    def test_all_jobs_complete(self):
        system = build_system()
        engine = QueryEngine(system)
        jobs = make_jobs(system, 30)
        report = engine.run_jobs(jobs, mode="closed", concurrency=4)
        assert report.queries == 30

    def test_concurrency_bound_respected(self):
        system = build_system()
        engine = QueryEngine(system)
        peaks = []
        engine.on_query_complete(lambda _record: peaks.append(engine.in_flight))
        engine.run_jobs(make_jobs(system, 20), mode="closed", concurrency=3)
        # just before each completion at most `concurrency` were in flight
        assert max(peaks) <= 3

    def test_invalid_concurrency_rejected(self):
        engine = QueryEngine(build_system())
        with pytest.raises(ValueError):
            engine.run_jobs([], mode="closed", concurrency=0)

    def test_synchronously_completing_jobs_do_not_overflow_stack(self):
        """Zero-message queries (origin owns the range) refill via the
        scheduler, not recursion — 3000 of them must not hit the limit."""
        system = build_system(num_peers=32)
        origin = system.network.peer_ids()[0]
        interval = system.single_namer.value_interval(origin)
        midpoint = (interval.low + interval.high) / 2
        jobs = [
            QueryJob(arrival=0.0, origin=origin, low=midpoint, high=midpoint)
            for _ in range(3000)
        ]
        report = QueryEngine(system).run_jobs(jobs, mode="closed", concurrency=1)
        assert report.queries == 3000
        assert all(record.result.messages == 0 for record in report.completed)


class TestMixedAndMulti:
    def test_mixed_pira_mira_jobs(self):
        system = build_system(multi=True)
        engine = QueryEngine(system)
        jobs = []
        for index in range(12):
            low = 50.0 * index
            if index % 2 == 0:
                jobs.append(QueryJob(arrival=float(index), low=low, high=low + 40.0))
            else:
                jobs.append(
                    QueryJob(
                        arrival=float(index),
                        ranges=((low, low + 100.0), (200.0, 600.0)),
                    )
                )
        report = engine.run_open_loop(jobs)
        assert report.queries == 12
        kinds = {record.job.kind for record in report.completed}
        assert kinds == {"pira", "mira"}

    def test_multi_job_without_intervals_raises(self):
        system = build_system(multi=False)
        engine = QueryEngine(system)
        engine.submit(QueryJob(arrival=0.0, ranges=((0.0, 10.0), (0.0, 10.0))))
        from repro.core.errors import ArmadaError

        with pytest.raises(ArmadaError):
            system.overlay.run()


class TestChurn:
    def test_queries_complete_under_churn(self):
        system = build_system(num_peers=128)
        engine = QueryEngine(system)
        jobs = make_jobs(system, 40, rate=3.0)
        horizon = max(job.arrival for job in jobs)
        engine.schedule_churn(periodic_churn(period=2.0, until=horizon, joins=2, leaves=2))
        report = engine.run_open_loop(jobs)
        assert report.queries == 40
        assert engine.in_flight == 0

    def test_churn_changes_membership(self):
        system = build_system(num_peers=64)
        engine = QueryEngine(system)
        engine.schedule_churn([ChurnEvent(time=1.0, kind="join", count=5)])
        engine.run()
        assert system.size == 69

    def test_unknown_churn_kind_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=0.0, kind="flap")

    def test_apply_churn_rejects_unknown_kind(self):
        """`_apply_churn` itself validates, even for events that bypassed
        ChurnEvent's constructor (e.g. hand-built schedule entries)."""
        from types import SimpleNamespace

        engine = QueryEngine(build_system(num_peers=64))
        with pytest.raises(ValueError, match="unknown churn kind"):
            engine._apply_churn(SimpleNamespace(time=0.0, kind="flap", count=1))

    def test_departing_peer_holding_outstanding_message(self):
        """Churn × in-flight: depart a peer that currently holds an
        outstanding PIRA message.  The message becomes undeliverable, is
        drop-accounted, and the query completes with a subset of results
        instead of hanging."""
        system = build_system(num_peers=128)
        executor = system.pira
        origin = system.network.peer_ids()[0]
        done = []
        result = executor.start(origin, [(100.0, 400.0)], on_complete=done.append)
        assert executor.active_queries == 1 and not done
        # Pick the receiver of an in-flight first-hop message and depart it
        # abruptly (overlay-level, before the DHT merges its zone — a
        # graceful `leave` relabels peers, so the raw unregister is the
        # deterministic way to strand exactly this receiver's messages).
        receivers = {receiver for _s, receiver, _h in result.forwarding_steps}
        victim = sorted(receivers)[0]
        system.overlay.unregister(victim)
        system.overlay.run()
        assert done and done[0] is result
        assert executor.active_queries == 0
        assert victim not in result.destinations
        assert result.resilience.drops >= 1
        assert not result.complete  # the loss is reported, not hidden

    def test_departing_mira_receiver_mid_flight(self):
        system = build_system(num_peers=128, multi=True)
        executor = system.mira
        origin = system.network.peer_ids()[0]
        done = []
        result = executor.start(
            origin, ((100.0, 500.0), (0.0, 900.0)), on_complete=done.append
        )
        receivers = {receiver for _s, receiver, _h in result.forwarding_steps}
        victim = sorted(receivers)[-1]
        system.overlay.unregister(victim)
        system.overlay.run()
        assert done and done[0] is result
        assert executor.active_queries == 0
        assert victim not in result.destinations

    def test_mass_departure_during_engine_run_never_hangs(self):
        """Remove most of the network while queries are in flight: every
        query must still complete (possibly partially), with the losses
        surfaced in the report's dropped column."""
        system = build_system(num_peers=128)
        engine = QueryEngine(system)
        jobs = make_jobs(system, 30, rate=10.0)
        engine.submit_many(jobs)
        system.overlay.simulator.schedule_at(2.0, lambda: system.remove_peers(100))
        report = engine.run()
        assert report.queries == 30
        assert report.stalled == 0
        assert engine.in_flight == 0
        assert report.dropped > 0

    def test_departed_peers_are_unregistered_from_overlay(self):
        """Sustained churn must not leak overlay node registrations."""
        system = build_system(num_peers=64)
        for _ in range(20):
            system.add_peers(2)
            system.remove_peers(2)
        assert system.size == 64
        assert len(system.overlay.node_ids()) == system.size


class TestDropsAreChargedToCompletedQueries:
    """Every message the overlay loses is charged by the executor to the
    query that sent it, and that query still completes: ``report.dropped``
    is the sum of the completed queries' ledgers and nothing is left in
    flight, under each way a message can be lost."""

    #: (report.messages, report.dropped) per scenario
    EXPECTED = {
        "crash-stop-reroute": (901, 172),
        "drop-everything": (50, 50),
        "iid-loss": (217, 78),
        "leave-churn": (640, 33),
    }

    @pytest.mark.parametrize("scenario", sorted(EXPECTED))
    def test_report_drops_are_the_completed_ledgers(self, scenario, drop_when):
        system = build_system(num_peers=150)
        churn = None
        if scenario == "drop-everything":
            drop_when(system.overlay, lambda message: True)
        elif scenario == "iid-loss":
            FaultPlan([IidLoss(0.3)], seed=5).install(system.overlay)
        elif scenario == "crash-stop-reroute":
            system.set_resilience(
                ResiliencePolicy(per_hop_timeout=3.0, max_retries=1, reroute=True)
            )
            FaultPlan([CrashStop(fraction=0.1, at=2.0)], seed=5).install(system.overlay)
        else:
            churn = [
                ChurnEvent(time=3.0, kind="leave", count=20),
                ChurnEvent(time=6.0, kind="leave", count=20),
            ]
        report = QueryEngine(system).run_jobs(make_jobs(system, 40), churn=churn)
        assert report.queries == 40
        assert report.stalled == 0
        assert report.dropped == sum(
            record.result.resilience.drops for record in report.completed
        )
        assert (report.messages, report.dropped) == self.EXPECTED[scenario]


class TestResumableExecutors:
    def test_active_queries_tracked(self):
        system = build_system()
        result = system.pira.start(system.random_peer_id(), [(100.0, 300.0)])
        assert system.pira.active_queries == 1
        system.overlay.run()
        assert system.pira.active_queries == 0
        assert result.destination_count >= 1

    def test_duplicate_query_id_rejected(self):
        from repro.core.errors import QueryError

        system = build_system()
        system.pira.start(system.random_peer_id(), [(100.0, 300.0)], query_id=77)
        with pytest.raises(QueryError):
            system.pira.start(system.random_peer_id(), [(100.0, 300.0)], query_id=77)
        system.overlay.run()

    def test_on_complete_fires_exactly_once(self):
        system = build_system()
        completions = []
        system.pira.start(
            system.random_peer_id(), [(0.0, 500.0)], on_complete=completions.append
        )
        system.overlay.run()
        assert len(completions) == 1
        assert completions[0].destination_count >= 1


def completion(started: float, completed: float, hops: int, **ledger) -> CompletedQuery:
    """A hand-built completion: one destination ``hops`` away, ``ledger``
    as its resilience counters."""
    result = RangeQueryResult(origin="0", query_id=1, destinations={"1": hops})
    result.resilience = ResilienceStats(**ledger)
    return CompletedQuery(
        job=QueryJob(), result=result, started_at=started, completed_at=completed
    )


class TestReportFromRecords:
    """Every figure of an :class:`EngineReport` is computed from its records,
    its launch count and its first launch instant."""

    def test_latency_and_throughput(self):
        launched = EngineReport(started=2, first_launch=0.0)
        assert launched.stalled == 2 and launched.makespan == 0.0
        report = EngineReport(
            completed=[completion(0.0, 4.0, 4), completion(1.0, 5.0, 4)],
            started=2,
            first_launch=0.0,
        )
        assert [entry.latency for entry in report.completed] == [4.0, 4.0]
        assert report.stalled == 0
        assert report.makespan == 5.0
        assert report.throughput == pytest.approx(0.4)
        summary = report.as_dict()
        assert summary["queries"] == 2
        assert summary["latency_p50"] == 4.0

    def test_a_run_with_a_stall_a_deadline_and_drops(self):
        # Launched at 0.0, 1.0, 2.0, 3.0; the first never completes.
        report = EngineReport(
            completed=[
                completion(1.0, 4.0, 3),
                completion(3.0, 6.0, 4, drops=2, retries=2, timeouts=2),
                completion(2.0, 9.0, 5, timeouts=1, deadline_expired=True),
            ],
            started=4,
            first_launch=0.0,
        )
        # From the stalled query's launch, not the first record's.
        assert report.makespan == 9.0
        assert report.throughput == 3 / 9.0
        assert (report.started, report.queries, report.stalled) == (4, 3, 1)
        assert (report.succeeded, report.failed) == (2, 1)
        assert report.dropped == 2
        assert report.resilience == ResilienceStats(
            drops=2, timeouts=3, retries=2, deadline_expired=True
        )
        assert report.latency_percentiles == {"p50": 3.0, "p95": 7.0, "p99": 7.0}
        assert report.delay_percentiles == {"p50": 4.0, "p95": 5.0, "p99": 5.0}
        assert report.mean_latency == 13 / 3
        assert report.mean_delay_hops == 4.0
        for figures in (report.latency_percentiles, report.delay_percentiles):
            assert all(type(value) is float for value in figures.values())
        assert type(report.mean_delay_hops) is float
        for count in (report.succeeded, report.failed, report.stalled, report.dropped):
            assert type(count) is int

    def test_an_idle_run(self):
        report = EngineReport()
        assert (report.queries, report.started, report.stalled) == (0, 0, 0)
        assert report.makespan == 0.0 and report.throughput == 0.0
        assert report.success_ratio == 1.0
        assert report.mean_latency == 0.0 and report.mean_delay_hops == 0.0
        assert report.latency_percentiles == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert report.resilience == ResilienceStats()
        assert report.as_dict()["queries"] == 0
        for clock in ("sim", "wall"):
            assert "queries completed : 0 (started 0)" in report.format(clock)

    def test_a_wall_clock_makespan_keeps_its_milliseconds(self):
        report = EngineReport(
            completed=[completion(0.0, 0.0123, 2), completion(0.01, 0.0246, 2)],
            started=2,
            first_launch=0.0,
        )
        assert "makespan          : 0.0246 seconds" in report.format("wall")
        assert "makespan          : 0.0 sim units" in report.format("sim")

    def test_the_engine_report_is_a_snapshot_of_the_drivers_ledger(self):
        system = build_system()
        engine = QueryEngine(system)
        report = engine.run_open_loop(make_jobs(system, 12))
        assert report.completed == engine.completed
        assert report.completed is not engine.completed
        assert report.started == engine.started == 12
        assert report.first_launch == engine.first_launch
        assert report.first_launch == min(record.started_at for record in report.completed)
        engine.completed.clear()
        assert report.queries == 12 and report.stalled == 0


class TestScoreCompleteness:
    def test_a_victim_holding_part_of_the_truth_is_charged_only_by_the_full_oracle(self):
        system = build_system()
        job = QueryJob(low=100.0, high=600.0)
        truth = sorted(system.pira.ground_truth_destinations(job.query_ranges))
        assert len(truth) >= 2
        victim = truth[0]
        # The query reached every destination but the victim's.
        result = RangeQueryResult(origin=truth[-1], query_id=1)
        result.destinations = {peer: 1 for peer in truth[1:]}
        record = CompletedQuery(job=job, result=result, started_at=0.0, completed_at=1.0)

        score = score_completeness([record], system.executors, down=[victim])
        assert score.successes == 1  # complete against the live truth
        assert score.mean == score.minimum == 1.0
        assert score.full_mean == score.full_minimum == (len(truth) - 1) / len(truth)
        assert score.full_mean < score.mean

        # With nobody down the two oracles agree.
        healthy = score_completeness([record], system.executors, down=())
        assert healthy.mean == healthy.full_mean == (len(truth) - 1) / len(truth)
        assert healthy.successes == 0
