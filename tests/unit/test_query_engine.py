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
    offered_load,
    score_completeness,
)
from repro.sim.metrics import QueryTracker
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
        report = engine.run_closed_loop(jobs, concurrency=4)
        assert report.queries == 30

    def test_concurrency_bound_respected(self):
        system = build_system()
        engine = QueryEngine(system)
        peaks = []
        engine.on_query_complete(lambda _record: peaks.append(engine.in_flight))
        engine.run_closed_loop(make_jobs(system, 20), concurrency=3)
        # just before each completion at most `concurrency` were in flight
        assert max(peaks) <= 3

    def test_invalid_concurrency_rejected(self):
        engine = QueryEngine(build_system())
        with pytest.raises(ValueError):
            engine.run_closed_loop([], concurrency=0)

    def test_synchronously_completing_jobs_do_not_overflow_stack(self):
        """Zero-message queries (origin owns the range) refill via the
        scheduler, not recursion — 3000 of them must not hit the limit."""
        system = build_system(num_peers=32)
        origin = system.network.peer_ids()[0]
        interval = system.single_namer.prefix_interval(origin)
        midpoint = (interval.low + interval.high) / 2
        jobs = [
            QueryJob(arrival=0.0, origin=origin, low=midpoint, high=midpoint)
            for _ in range(3000)
        ]
        report = QueryEngine(system).run_closed_loop(jobs, concurrency=1)
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
        assert system.overlay.node_count == system.size


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


class TestQueryTracker:
    def test_duplicate_start_rejected(self):
        tracker = QueryTracker()
        tracker.start(1, 0.0)
        with pytest.raises(ValueError):
            tracker.start(1, 1.0)

    def test_complete_unknown_rejected(self):
        with pytest.raises(ValueError):
            QueryTracker().complete(9, 1.0)

    def test_latency_and_throughput(self):
        tracker = QueryTracker()
        tracker.start("a", 0.0)
        tracker.start("b", 1.0)
        assert tracker.in_flight == 2
        assert tracker.complete("a", 4.0, delay_hops=4) == 4.0
        assert tracker.complete("b", 5.0, delay_hops=4) == 4.0
        assert tracker.in_flight == 0
        assert tracker.makespan == 5.0
        assert tracker.throughput() == pytest.approx(0.4)
        summary = tracker.as_dict()
        assert summary["completed"] == 2.0
        assert summary["latency_p50"] == 4.0


class TestOfferedLoad:
    def test_rate_recovered_from_uniform_arrivals(self):
        jobs = [QueryJob(arrival=float(i) / 2.0) for i in range(11)]
        assert offered_load(jobs) == pytest.approx(2.0)

    def test_degenerate_batches(self):
        assert offered_load([]) == 0.0
        assert offered_load([QueryJob(arrival=1.0)]) == 0.0


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
