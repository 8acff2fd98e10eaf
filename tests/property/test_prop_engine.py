"""Equivalence property: concurrent execution changes timing, never results.

Query forwarding is deterministic given the topology and independent of the
simulation clock, so N queries run as overlapping in-flight work through the
:class:`~repro.engine.QueryEngine` must produce byte-identical per-query
measurements (destinations with hop counts, message count, delay) to the
same N queries run sequentially to completion on an identically-seeded
system.  This is the invariant that makes the engine's latency/throughput
numbers trustworthy: load changes *when* things happen, not *what* happens.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.armada import ArmadaSystem
from repro.core.pira import RangeQueryResult
from repro.engine import CompletedQuery, EngineReport, QueryEngine, QueryJob
from repro.faults import ResilienceStats
from repro.sim.rng import DeterministicRNG
from repro.workloads.arrivals import poisson_arrival_times


def build_system(seed: int, num_peers: int = 200) -> ArmadaSystem:
    system = ArmadaSystem(
        num_peers=num_peers,
        seed=seed,
        attribute_interval=(0.0, 1000.0),
        attribute_intervals=((0.0, 1000.0), (0.0, 1000.0)),
    )
    system.insert_many([float(value) for value in range(0, 1000, 5)])
    rng = DeterministicRNG(seed).substream("multi-values")
    for _ in range(200):
        record = (rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        system.insert_multi(record, payload=record)
    return system


def make_mixed_jobs(system: ArmadaSystem, count: int, rate: float, seed: int):
    """``count`` mixed PIRA/MIRA jobs with Poisson arrivals and fixed origins."""
    rng = DeterministicRNG(seed)
    arrivals = poisson_arrival_times(rng.substream("arrivals"), rate, count)
    pick = rng.substream("jobs")
    jobs = []
    for index, arrival in enumerate(arrivals):
        origin = system.network.random_peer(pick).peer_id
        low = pick.uniform(0.0, 850.0)
        if index % 3 == 2:
            jobs.append(
                QueryJob(
                    arrival=arrival,
                    origin=origin,
                    ranges=((low, low + 120.0), (pick.uniform(0.0, 500.0), 900.0)),
                )
            )
        else:
            jobs.append(QueryJob(arrival=arrival, origin=origin, low=low, high=low + 80.0))
    return jobs


def run_sequentially(system: ArmadaSystem, jobs):
    results = []
    for job in jobs:
        if job.ranges is not None:
            results.append(system.multi_range_query(job.ranges, origin=job.origin))
        else:
            results.append(system.range_query(job.low, job.high, origin=job.origin))
    return results


def assert_equivalent(jobs, concurrent_report, sequential_results):
    by_job = {id(record.job): record.result for record in concurrent_report.completed}
    assert len(by_job) == len(jobs)
    for job, sequential in zip(jobs, sequential_results):
        concurrent = by_job[id(job)]
        assert concurrent.destinations == sequential.destinations
        assert concurrent.messages == sequential.messages
        assert concurrent.delay_hops == sequential.delay_hops
        assert concurrent.forwarding_steps == sequential.forwarding_steps
        assert sorted(map(str, concurrent.matching_values())) == sorted(
            map(str, sequential.matching_values())
        )


class TestConcurrentSequentialEquivalence:
    def test_200_mixed_queries_identical_to_sequential(self):
        """The acceptance property: N=200 mixed PIRA/MIRA, byte-identical."""
        jobs = make_mixed_jobs(build_system(seed=21), count=200, rate=8.0, seed=99)

        concurrent_system = build_system(seed=21)
        report = QueryEngine(concurrent_system).run_open_loop(jobs)
        assert report.queries == 200

        sequential_system = build_system(seed=21)
        sequential = run_sequentially(sequential_system, jobs)

        assert_equivalent(jobs, report, sequential)

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=50),
        rate=st.floats(min_value=0.2, max_value=50.0, allow_nan=False),
    )
    def test_equivalence_across_seeds_and_rates(self, seed: int, rate: float):
        jobs = make_mixed_jobs(build_system(seed=7, num_peers=96), 30, rate, seed)

        concurrent_system = build_system(seed=7, num_peers=96)
        report = QueryEngine(concurrent_system).run_open_loop(jobs)

        sequential_system = build_system(seed=7, num_peers=96)
        sequential = run_sequentially(sequential_system, jobs)

        assert_equivalent(jobs, report, sequential)

    def test_closed_loop_equivalent_too(self):
        jobs = make_mixed_jobs(build_system(seed=4, num_peers=96), 40, rate=5.0, seed=13)

        concurrent_system = build_system(seed=4, num_peers=96)
        report = QueryEngine(concurrent_system).run_closed_loop(jobs, concurrency=6)

        sequential_system = build_system(seed=4, num_peers=96)
        sequential = run_sequentially(sequential_system, jobs)

        assert_equivalent(jobs, report, sequential)

    def test_empty_fault_plan_is_byte_identical_to_fault_free(self):
        """The faults acceptance property: an engine configured with an
        empty FaultPlan, a full resilience policy and a deadline produces
        measurements byte-identical to the plain fault-free path — the
        fault machinery is invisible until a fault actually exists."""
        from repro.faults import FaultPlan, ResiliencePolicy

        jobs = make_mixed_jobs(build_system(seed=21), count=200, rate=8.0, seed=99)

        guarded_system = build_system(seed=21)
        assert guarded_system.install_faults(FaultPlan.empty()) is None
        assert guarded_system.overlay.fault_injector is None
        guarded_system.set_resilience(
            ResiliencePolicy(per_hop_timeout=4.0, max_retries=2, reroute=True)
        )
        report = QueryEngine(guarded_system, deadline=500.0).run_open_loop(jobs)
        assert report.queries == 200
        assert report.failed == 0 and report.stalled == 0 and report.dropped == 0

        plain_system = build_system(seed=21)
        plain_report = QueryEngine(plain_system).run_open_loop(jobs)

        assert_equivalent(jobs, report, run_sequentially(build_system(seed=21), jobs))
        # Identical timing too, not just identical measurements: timers are
        # cancelled before firing, so the processed-event stream matches.
        guarded = {id(r.job): r for r in report.completed}
        for record in plain_report.completed:
            twin = guarded[id(record.job)]
            assert twin.started_at == record.started_at
            assert twin.completed_at == record.completed_at
        assert report.messages == plain_report.messages
        assert report.events == plain_report.events


# -- the report's figures over arbitrary records -----------------------------

ledgers = st.builds(
    ResilienceStats,
    drops=st.integers(min_value=0, max_value=5),
    timeouts=st.integers(min_value=0, max_value=5),
    subtrees_lost=st.integers(min_value=0, max_value=1),
    deadline_expired=st.booleans(),
)

records = st.builds(
    lambda start, sojourn, hops, ledger: CompletedQuery(
        job=QueryJob(),
        result=RangeQueryResult(
            origin="0", query_id=1, destinations={"1": hops}, resilience=ledger
        ),
        started_at=start,
        completed_at=start + sojourn,
    ),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.integers(min_value=0, max_value=12),
    ledgers,
)


@given(completed=st.lists(records, max_size=8), stalls=st.integers(min_value=0, max_value=3))
def test_report_figures_add_up_over_any_records(completed, stalls):
    first = min((record.started_at for record in completed), default=0.0)
    report = EngineReport(
        completed=completed, started=len(completed) + stalls, first_launch=first
    )
    assert report.succeeded + report.failed == report.queries == len(completed)
    assert report.stalled == stalls
    assert report.succeeded == sum(1 for record in completed if record.result.complete)
    assert report.dropped == report.resilience.drops
    assert report.resilience.timeouts == sum(r.result.resilience.timeouts for r in completed)
    assert report.resilience.deadline_expired == any(
        record.result.failed for record in completed
    )
    assert all(record.latency <= report.makespan for record in completed)
    if completed:
        latencies = sorted(record.latency for record in completed)
        # nearest rank: with at most eight samples the p99 is the largest
        assert report.latency_percentiles["p99"] == latencies[-1]
        assert latencies[0] <= report.mean_latency <= latencies[-1] + 1e-9
    summary = report.as_dict()
    assert (summary["succeeded"], summary["failed"], summary["stalled"]) == (
        report.succeeded,
        report.failed,
        report.stalled,
    )
