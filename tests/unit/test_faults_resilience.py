"""Unit tests for the resilience layer: per-hop timeouts with bounded
retries, sibling rerouting around dead hops, partial-result accounting and
the engine's deadline enforcement."""

from __future__ import annotations

import pytest

from repro.core.armada import ArmadaSystem
from repro.engine import QueryEngine, QueryJob
from repro.faults import CrashStop, FaultInjector, FaultPlan, IidLoss, ResiliencePolicy
from repro.faults.resilience import ResilienceStats, default_deadline
from repro.obs.spans import Tracer
from repro.sim.rng import DeterministicRNG
from repro.workloads.values import uniform_values

LOW, HIGH = 100.0, 300.0


def build_system(num_peers: int = 150, seed: int = 88) -> ArmadaSystem:
    system = ArmadaSystem(num_peers=num_peers, seed=seed, attribute_interval=(0.0, 1000.0))
    values = uniform_values(DeterministicRNG(seed).substream("values"), 800, 0.0, 1000.0)
    system.insert_many(values)
    return system


class TestPolicyValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(per_hop_timeout=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(detour_hop_penalty=-1)

    def test_attempts_per_hop(self):
        assert ResiliencePolicy(max_retries=2).attempts_per_hop == 3

    def test_stats_ledger(self):
        stats = ResilienceStats(drops=2, retries=1)
        assert not stats.clean
        assert ResilienceStats().clean
        merged = ResilienceStats()
        merged.merge(stats)
        merged.merge(ResilienceStats(deadline_expired=True))
        assert merged.drops == 2 and merged.retries == 1 and merged.deadline_expired
        payload = merged.as_dict()
        assert payload["deadline_expired"] == 1
        assert all(isinstance(value, int) for value in payload.values())

    def test_default_deadline_scales_with_retry_budget(self):
        policy = ResiliencePolicy(per_hop_timeout=4.0, max_retries=2)
        assert default_deadline(policy, 8.0) > default_deadline(None, 8.0)


class TestTimeoutAndRetry:
    def test_transient_loss_recovered_by_retry(self):
        """Drop the first copy of every forwarding message: with retries the
        query still reaches every ground-truth destination, at higher
        latency and message cost."""
        system = build_system()
        reference = system.range_query(LOW, HIGH, origin=system.network.peer_ids()[0])

        system2 = build_system()
        system2.set_resilience(ResiliencePolicy(per_hop_timeout=3.0, max_retries=2))
        seen = set()

        def drop_first_copy(message):
            key = (message.query_id, message.send)
            if key in seen:
                return False
            seen.add(key)
            return True

        system2.overlay.set_drop_filter(drop_first_copy)
        degraded = system2.range_query(LOW, HIGH, origin=system2.network.peer_ids()[0])
        system2.overlay.set_drop_filter(None)

        assert degraded.complete
        assert degraded.destinations == reference.destinations
        assert degraded.resilience.retries > 0
        assert degraded.resilience.timeouts >= degraded.resilience.retries
        assert degraded.messages > reference.messages

    def test_unrecoverable_loss_reports_partial_not_hang(self):
        """Dropping everything: the query must terminate (no hang) and
        report itself incomplete with lost subtrees."""
        system = build_system()
        system.set_resilience(
            ResiliencePolicy(per_hop_timeout=2.0, max_retries=1, reroute=False)
        )
        system.overlay.set_drop_filter(lambda message: True)
        result = system.range_query(LOW, HIGH)
        system.overlay.set_drop_filter(None)
        assert system.pira.active_queries == 0
        assert not result.complete
        assert result.resilience.subtrees_lost > 0
        assert result.resilience.retries > 0
        assert result.destination_count <= 1

    def test_retry_count_bounded(self):
        system = build_system(num_peers=80)
        policy = ResiliencePolicy(per_hop_timeout=2.0, max_retries=3, reroute=False)
        system.set_resilience(policy)
        system.overlay.set_drop_filter(lambda message: True)
        result = system.range_query(LOW, HIGH)
        system.overlay.set_drop_filter(None)
        # Initial fan-out sends F messages; every logical send is attempted
        # at most attempts_per_hop times and nothing is ever processed, so
        # no second-level sends exist.
        fanout = len({step[1] for step in result.forwarding_steps})
        assert result.messages <= fanout * policy.attempts_per_hop

    def test_no_policy_means_no_timers_or_retries(self):
        system = build_system(num_peers=80)
        system.overlay.set_drop_filter(lambda message: message.hop >= 2)
        result = system.range_query(LOW, HIGH)
        system.overlay.set_drop_filter(None)
        assert result.resilience.retries == 0
        assert result.resilience.timeouts == 0
        assert result.resilience.drops > 0
        assert result.resilience.subtrees_lost == result.resilience.drops
        assert not result.complete


class TestSiblingReroute:
    def crash_relay(self, system):
        """Crash a relay: a forwarder that is neither a destination nor the
        origin (the origin reappears at deeper FRT levels, so it must be
        excluded explicitly — crashing it would kill the whole query)."""
        origin = system.network.peer_ids()[0]
        reference = system.range_query(LOW, HIGH, origin=origin)
        relays = {
            receiver
            for _sender, receiver, _hop in reference.forwarding_steps
            if receiver not in reference.destinations and receiver != origin
        }
        assert relays, "test topology must have at least one pure relay"
        victim = sorted(relays)[0]
        return reference, victim

    def test_reroute_recovers_subtree_behind_dead_relay(self):
        probe = build_system()
        reference, victim = self.crash_relay(probe)

        system = build_system()
        system.set_resilience(ResiliencePolicy(per_hop_timeout=2.0, max_retries=1, reroute=True))
        FaultInjector(system.overlay, [CrashStop(peer_ids=[victim], at=0.0)], seed=1).install()
        system.overlay.run(until=0.0)
        recovered = system.range_query(LOW, HIGH, origin=system.network.peer_ids()[0])

        # Every live ground-truth destination is reached despite the dead
        # relay; the detour cost shows up in reroutes and extra hops.
        assert set(recovered.destinations) == set(reference.destinations)
        assert recovered.resilience.reroutes > 0
        assert recovered.resilience.recovered_destinations > 0
        assert recovered.delay_hops >= reference.delay_hops

    def test_without_reroute_subtree_stays_lost(self):
        probe = build_system()
        reference, victim = self.crash_relay(probe)

        system = build_system()
        system.set_resilience(ResiliencePolicy(per_hop_timeout=2.0, max_retries=1, reroute=False))
        FaultInjector(system.overlay, [CrashStop(peer_ids=[victim], at=0.0)], seed=1).install()
        system.overlay.run(until=0.0)
        degraded = system.range_query(LOW, HIGH, origin=system.network.peer_ids()[0])

        assert set(degraded.destinations) < set(reference.destinations)
        assert degraded.resilience.subtrees_lost > 0
        assert not degraded.complete


class TestDuplicationSafety:
    def test_duplicates_never_corrupt_completion(self):
        from repro.faults import Duplicate

        system = build_system()
        system.set_resilience(ResiliencePolicy())
        FaultPlan([Duplicate(probability=1.0)], seed=3).install(system.overlay)
        reference = build_system().range_query(LOW, HIGH, origin=system.network.peer_ids()[0])
        result = system.range_query(LOW, HIGH, origin=system.network.peer_ids()[0])
        assert system.pira.active_queries == 0
        assert result.complete
        assert result.destinations == reference.destinations
        assert sorted(map(str, result.matching_values())) == sorted(
            map(str, reference.matching_values())
        )


class TestExecutorCancel:
    def test_cancel_fires_callback_with_partial_result(self):
        system = build_system()
        done = []
        result = system.pira.start(
            system.network.peer_ids()[0], [(LOW, HIGH)], on_complete=done.append
        )
        assert system.pira.is_active(result.query_id)
        assert system.pira.cancel(result.query_id) is True
        assert done and done[0] is result
        assert result.failed
        assert not result.complete
        assert system.pira.active_queries == 0
        # Cancelling again (or cancelling the unknown) is a no-op.
        assert system.pira.cancel(result.query_id) is False
        system.overlay.run()  # late deliveries for the dead query are ignored


def single_send_receiver(origin: str) -> str:
    """A peer the origin forwards to that no other send of the query reaches,
    so losing that one send loses exactly one subtree."""
    reference = build_system().range_query(LOW, HIGH, origin=origin)
    receivers = [receiver for _sender, receiver, _hop in reference.forwarding_steps]
    return next(
        receiver
        for sender, receiver, _hop in reference.forwarding_steps
        if sender == origin and receivers.count(receiver) == 1
    )


class TestOneWriteOff:
    """However a send is lost, the executor settles it the same way: the hop
    span closes with the cause, and the subtree is rerouted or counted lost.

    The last cause is a join split renaming a receiver while the query's
    message to it is in flight, the overlay not refreshed: nobody searches
    the subtree behind it, so the verdict is ``partial``, not ``ok``."""

    @pytest.mark.parametrize(
        "cause, policy, drops, timeouts, retries, span_status",
        [
            ("unreachable before the send", None, 0, 0, 0, "unreachable"),
            (
                "timeout after the retries",
                ResiliencePolicy(per_hop_timeout=2.0, max_retries=1, reroute=False),
                2,
                2,
                1,
                "timeout",
            ),
            ("drop without a policy", None, 1, 0, 0, "dropped"),
            ("delivery to a departed PeerID", None, 0, 0, 0, "unreachable"),
        ],
    )
    def test_one_lost_send_is_one_lost_subtree(
        self, cause, policy, drops, timeouts, retries, span_status
    ):
        system = build_system()
        origin = system.network.peer_ids()[0]
        victim = single_send_receiver(origin)
        system.set_resilience(policy)
        tracer = Tracer()
        system.pira.set_tracer(tracer, all_queries=True)
        if cause == "unreachable before the send":
            system.overlay.unregister(victim)
        elif cause != "delivery to a departed PeerID":
            system.crash_peer(victim)
        result = system.pira.start(origin, [(LOW, HIGH)])
        if cause == "delivery to a departed PeerID":
            system.network.join(target_key=victim)  # the overlay is not refreshed
            assert not system.network.has_peer(victim)
        system.overlay.run()

        stats = result.resilience
        assert (stats.drops, stats.timeouts, stats.retries) == (drops, timeouts, retries)
        assert (stats.reroutes, stats.subtrees_lost) == (0, 1)
        assert not stats.deadline_expired
        assert result.status == "partial"
        trace = tracer.completed[f"pira-{result.query_id}"]
        [hop] = [span for span in trace.spans if span.name == f"hop {origin}->{victim}"]
        assert hop.status == span_status


class TestEngineDeadline:
    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            QueryEngine(build_system(num_peers=80), deadline=0.0)

    def test_doomed_queries_fail_at_deadline_instead_of_leaking(self):
        system = build_system()
        system.set_resilience(ResiliencePolicy(per_hop_timeout=5.0, max_retries=3))
        system.overlay.set_drop_filter(lambda message: True)
        engine = QueryEngine(system, deadline=6.0)
        report = engine.run_open_loop(
            [QueryJob(arrival=float(index), low=LOW, high=HIGH) for index in range(5)]
        )
        system.overlay.set_drop_filter(None)
        assert report.queries == 5
        assert report.failed == 5
        assert report.stalled == 0
        assert all(record.status == "deadline" for record in report.completed)
        # Deadline fired before the retry budget (3+1 attempts × 5 units)
        # would have drained naturally.
        assert all(record.latency <= 6.0 for record in report.completed)
        assert report.success_ratio == 0.0

    def test_healthy_queries_unaffected_by_deadline(self):
        system = build_system()
        engine = QueryEngine(system, deadline=500.0)
        report = engine.run_open_loop(
            [QueryJob(arrival=0.0, low=LOW, high=HIGH) for _ in range(10)]
        )
        assert report.queries == 10
        assert report.failed == 0
        assert report.succeeded == 10
        assert all(record.status == "ok" for record in report.completed)


class TestEngineReportColumns:
    def test_dropped_column_surfaces_loss_without_faults(self):
        """Satellite: even with no fault plan, churn-induced drops show up
        in the engine report instead of silently shrinking results."""
        system = build_system()
        engine = QueryEngine(system)
        jobs = [QueryJob(arrival=float(i) * 2.0, low=LOW, high=HIGH) for i in range(20)]
        engine.submit_many(jobs)
        # Remove peers mid-workload so some in-flight receivers vanish.
        system.overlay.simulator.schedule_at(3.0, lambda: system.remove_peers(60))
        report = engine.run()
        assert report.queries == 20
        assert report.stalled == 0
        assert report.dropped > 0
        summary = report.as_dict()
        for key in ("succeeded", "failed", "stalled", "dropped", "retries", "reroutes"):
            assert key in summary
            assert isinstance(summary[key], int)
        assert "success ratio" in report.format()

    def test_iid_loss_with_policy_keeps_success_high(self):
        system = build_system()
        system.set_resilience(ResiliencePolicy(per_hop_timeout=3.0, max_retries=3))
        FaultPlan([IidLoss(0.05)], seed=11).install(system.overlay)
        engine = QueryEngine(system, deadline=200.0)
        report = engine.run_open_loop(
            [QueryJob(arrival=float(i), low=LOW, high=HIGH) for i in range(30)]
        )
        assert report.queries == 30
        assert report.stalled == 0
        assert report.success_ratio >= 0.8
        assert report.resilience.retries > 0
