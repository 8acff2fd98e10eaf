"""One fault drill, two clocks.

The drill (:mod:`repro.experiments.drill`) decides every clock-free input
once — boot PeerIDs, victims, population, workload, kill point — so running
it on a :class:`~repro.api.sim.SimSession` over an
:class:`~repro.core.armada.ArmadaSystem` and on a
:class:`~repro.api.live.LiveSession` over a
:class:`~repro.runtime.cluster.LiveCluster` must hand both backends the
same inputs.  What the two backends then *do* with the dead zones is
printed side by side, query by query (run with ``-s`` to see it), and not
yet asserted equal: the per-hop timeout is a simulated constant on one
side and a wall-clock race on the other.
"""

from __future__ import annotations

import asyncio
from collections import Counter

from repro.api.live import LiveSession
from repro.api.sim import SimSession
from repro.core.armada import ArmadaSystem
from repro.experiments.drill import KILL_AFTER_FRACTION, FaultDrill, run_drill
from repro.faults import ResiliencePolicy, default_deadline
from repro.runtime.cluster import LiveCluster
from repro.runtime.server import live_gateway

DRILL = FaultDrill(peers=16, queries=80, fraction=0.25)
#: simulated units, the ``repro faults`` defaults
SIM_POLICY = ResiliencePolicy(per_hop_timeout=4.0, max_retries=2, reroute=True)
#: wall-clock seconds: a localhost round trip is well under a millisecond
LIVE_POLICY = ResiliencePolicy(per_hop_timeout=0.1, max_retries=2, reroute=True)
LIVE_DEADLINE = 1.0


def sim_system(drill: FaultDrill) -> ArmadaSystem:
    return ArmadaSystem(
        num_peers=drill.peers,
        seed=drill.seed,
        attribute_interval=drill.attribute_interval,
        attribute_intervals=(drill.attribute_interval,) * 2,
    )


def run_sim(drill: FaultDrill):
    """``(boot PeerIDs, outcome, system)`` of ``drill`` on the simulator."""
    system = sim_system(drill)
    boot = list(system.network.peer_ids())
    session = SimSession(system, default_deadline(SIM_POLICY, system.log_size()))
    return boot, asyncio.run(run_drill(drill, session, system, SIM_POLICY)), system


def run_live(drill: FaultDrill):
    """``(boot PeerIDs, outcome, cluster)`` of ``drill`` on a live cluster."""
    cluster = LiveCluster(
        num_peers=drill.peers,
        seed=drill.seed,
        num_nodes=4,
        attribute_interval=drill.attribute_interval,
        attribute_intervals=(drill.attribute_interval,) * 2,
    )

    async def scenario():
        async with live_gateway(cluster, deadline=LIVE_DEADLINE) as (gateway, _):
            boot = list(cluster.network.peer_ids())
            async with await LiveSession.connect(*gateway.address, pool=2) as session:
                return boot, await run_drill(drill, session, cluster, LIVE_POLICY)

    boot, outcome = asyncio.run(scenario())
    return boot, outcome, cluster


def verdicts(outcome, host):
    """Per job, in job order: ``(status, reached, live truth, reroutes)``."""
    by_job = {record.job: record for record in outcome.report.completed}
    rows = []
    for job in outcome.jobs:
        result = by_job[job].result
        truth = host.executors[job.kind].ground_truth_destinations(job.query_ranges)
        live_truth = truth - set(outcome.victims)
        rows.append(
            (
                result.status,
                len(live_truth.intersection(result.destinations)),
                len(live_truth),
                result.resilience.reroutes,
            )
        )
    return rows


def assert_pre_kill_queries_reached_their_full_truth(outcome, host):
    for record in outcome.report.completed[: outcome.kill_at]:
        truth = host.executors[record.job.kind].ground_truth_destinations(
            record.job.query_ranges
        )
        assert truth <= set(record.result.destinations), record.job


class TestOneDrillOnBothClocks:
    def test_same_inputs_every_job_completes_verdicts_side_by_side(self):
        sim_boot, sim, system = run_sim(DRILL)
        live_boot, live, cluster = run_live(DRILL)

        # The inputs the drill decides are the backends' own, identical.
        assert sim_boot == live_boot
        assert sim.victims == live.victims and len(sim.victims) == DRILL.victims == 4
        assert sim.jobs == live.jobs
        assert sim.kill_at == live.kill_at == int(DRILL.queries * KILL_AFTER_FRACTION) == 20
        # Every job completes on both, exactly once.
        for outcome in (sim, live):
            assert Counter(record.job for record in outcome.report.completed) == Counter(
                outcome.jobs
            )
        assert_pre_kill_queries_reached_their_full_truth(sim, system)
        assert_pre_kill_queries_reached_their_full_truth(live, cluster)

        sim_rows, live_rows = verdicts(sim, system), verdicts(live, cluster)
        print(
            f"\nfault drill, {DRILL.peers} peers, {DRILL.queries} queries, victims "
            f"{', '.join(sim.victims)} killed after query {sim.kill_at}"
        )
        print(" job  sim: status  reached/live  reroutes | live: status  reached/live  reroutes")
        for index, (left, right) in enumerate(zip(sim_rows, live_rows)):
            marker = "" if left == right else "   <- differs"
            print(
                f"{index:4d}  {left[0]:>12}  {left[1]:>5}/{left[2]:<5}  {left[3]:>8} | "
                f"{right[0]:>12}  {right[1]:>5}/{right[2]:<5}  {right[3]:>8}{marker}"
            )
        differing = sum(left != right for left, right in zip(sim_rows, live_rows))
        print(
            f"{differing}/{len(sim_rows)} verdicts differ; success sim "
            f"{sim.success_ratio:.4f} live {live.success_ratio:.4f}; reroutes sim "
            f"{sim.report.resilience.reroutes} live {live.report.resilience.reroutes}"
        )


class TestKillAfterExactlyK:
    def test_kill_lands_exactly_after_query_k_on_the_simulator(self):
        """The sibling of the live ``test_kill_lands_exactly_after_query_k``:
        on the simulator too the victims die from the driver's completion
        listener, after query ``k`` — not at time zero."""
        drill = FaultDrill(peers=16, queries=200, objects=100)
        _, outcome, system = run_sim(drill)
        assert outcome.kill_at == int(drill.queries * KILL_AFTER_FRACTION) == 50
        assert outcome.report.queries == drill.queries
        assert system.overlay.fault_injector.down_ids == set(outcome.victims)
        assert all(record.job.origin not in outcome.victims for record in outcome.report.completed)
        # Nothing was down before the kill, so those queries reached everything.
        assert_pre_kill_queries_reached_their_full_truth(outcome, system)
        assert outcome.report.resilience.reroutes > 0
