"""The livefaults experiment: kill -9 under live load, measured like the sim.

``repro livefaults`` is the live counterpart of the simulated fault sweep
(``repro faults``): it boots a gossip-enabled asyncio cluster behind a
gateway, starts a deterministic mixed PIRA/MIRA soak through a pooled
:class:`~repro.api.LiveSession` with the one load driver
(:func:`repro.runtime.loadgen.run_jobs`), and — from the driver's
completion listener, exactly after query ``k = queries ×
kill_after_fraction`` — hard-kills (``kill -9`` semantics: no goodbye, route
left dangling) a seeded sample of peers *mid-run*.  No component is told about
the failures out of band: the SWIM control plane has to detect them
(ping → ping-req → suspect → dead), withdraw the victims' routes, and the
resilience layer has to detour the in-flight and subsequent queries around
the holes.

Every completed query is then scored by the function the simulated sweep
scores its queries with (:func:`~repro.engine.reporting.score_completeness`):
completeness against the executors' own ``ground_truth_destinations``
restricted to live peers, success = "complete against the surviving world
and not deadline-failed".  That
makes the live ``success_ratio`` directly comparable to the ``repro
faults`` figure for resilient PIRA at the same failed fraction —
``tests/paper/test_livefaults.py`` asserts the two land within a small
gap of each other.

The run asserts nothing by itself; the CLI's ``--require-success`` and
``--require-convergence`` turn the success ratio and the membership
verdict into exit codes for the CI churn-smoke job.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.live import LiveSession
from repro.engine.reporting import CompletedQuery, EngineReport, score_completeness
from repro.experiments.soak import check_sizing, seed_population
from repro.faults import ResiliencePolicy
from repro.gossip import SwimConfig
from repro.runtime.cluster import LiveCluster
from repro.runtime.loadgen import make_mixed_jobs, run_jobs
from repro.runtime.server import live_gateway
from repro.sim.rng import DeterministicRNG

#: Gossip timing for the experiment: brisk enough that detection completes
#: well inside a short soak, still multi-round (ping → indirect → suspicion)
#: so the protocol is exercised, not short-circuited.
FAST_SWIM = SwimConfig(
    interval=0.1,
    ping_timeout=0.1,
    indirect_timeout=0.15,
    suspicion_timeout=0.6,
)


@dataclass(frozen=True)
class LiveFaultsSpec:
    """Parameters of one live-faults run (validated on construction)."""

    peers: int = 32
    nodes: Optional[int] = 8
    queries: int = 400
    concurrency: int = 16
    objects: int = 300
    seed: int = 1
    #: fraction of peers to SIGKILL mid-run
    fraction: float = 0.2
    range_size: float = 20.0
    mira_fraction: float = 0.2
    deadline: float = 5.0
    attribute_interval: Tuple[float, float] = (0.0, 1000.0)
    #: resilience policy applied to the live executors (wall-clock seconds)
    hop_timeout: float = 0.3
    retries: int = 2
    reroute: bool = True
    pool: int = 4
    #: kill the victims once this fraction of the workload has completed
    kill_after_fraction: float = 0.25
    #: give up waiting for membership convergence after this many seconds
    convergence_timeout: float = 15.0
    gossip_config: SwimConfig = FAST_SWIM

    def __post_init__(self) -> None:
        if self.peers < 4:
            raise ValueError("need at least 4 peers")
        check_sizing(self)
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must be within (0, 1)")
        if self.hop_timeout <= 0:
            raise ValueError("hop-timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if not 0.0 <= self.kill_after_fraction < 1.0:
            raise ValueError("kill-after-fraction must be within [0, 1)")
        if self.convergence_timeout <= 0:
            raise ValueError("convergence-timeout must be positive")

    @property
    def victims(self) -> int:
        """How many peers die: at least one, at most peers - 3."""
        return max(1, min(self.peers - 3, round(self.peers * self.fraction)))


@dataclass
class LiveFaultsResult:
    """Outcome of one live-faults run."""

    spec: LiveFaultsSpec
    report: EngineReport
    wall_seconds: float
    killed: List[str]
    success_ratio: float
    mean_completeness: float
    min_completeness: float
    deadline_failed: int
    #: seconds from SIGKILL to a converged all-dead membership view
    detection_seconds: float
    converged: bool
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed_fraction(self) -> float:
        """The realized kill fraction (victims / boot peers)."""
        return len(self.killed) / self.spec.peers

    def record(self) -> Dict[str, Any]:
        """One flat :class:`~repro.analysis.store.ResultStore` record."""
        return {
            "experiment": "livefaults",
            "scheme": "Armada (live)",
            "seed": self.spec.seed,
            "fraction": self.spec.fraction,
            "mira_fraction": self.spec.mira_fraction,
            "peers": self.spec.peers,
            "nodes": self.stats.get("nodes", self.spec.nodes or self.spec.peers),
            "queries": self.report.queries,
            "killed": len(self.killed),
            "failed_fraction": self.failed_fraction,
            "success_ratio": self.success_ratio,
            "mean_completeness": self.mean_completeness,
            "min_completeness": self.min_completeness,
            "deadline_failed": self.deadline_failed,
            "retries": int(self.report.resilience.retries),
            "reroutes": int(self.report.resilience.reroutes),
            "detection_seconds": self.detection_seconds,
            "converged": 1.0 if self.converged else 0.0,
            "gossip_frames": int(self.stats.get("gossip_frames", 0)),
            "wall_seconds": self.wall_seconds,
            "queries_per_sec": (
                self.report.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0
            ),
        }

    def format(self) -> str:
        """Human-readable summary."""
        lines = [
            "Live faults (SIGKILL mid-soak, gossip detection, resilient queries)",
            f"cluster           : {self.spec.peers} peers on "
            f"{self.stats.get('nodes', '?')} nodes, seed {self.spec.seed}, gossip on",
            f"killed            : {len(self.killed)}/{self.spec.peers} peers "
            f"({self.failed_fraction:.0%}) after "
            f"{self.stats.get('killed_after', 0)} queries: {', '.join(self.killed)}",
            f"detection         : "
            + (
                f"membership converged on the deaths in {self.detection_seconds:.2f}s"
                if self.converged
                else "membership did NOT converge "
                f"(waited {self.spec.convergence_timeout:g}s)"
            ),
            f"success ratio     : {self.success_ratio:.4f} "
            f"(vs surviving-peer ground truth; {self.deadline_failed} deadline-failed)",
            f"completeness      : mean {self.mean_completeness:.4f}, "
            f"min {self.min_completeness:.4f}",
            f"resilience        : {int(self.report.resilience.retries)} retries, "
            f"{int(self.report.resilience.reroutes)} reroutes",
            f"wall time         : {self.wall_seconds:.2f}s "
            f"({self.report.queries / max(self.wall_seconds, 1e-9):,.0f} queries/sec)",
        ]
        return "\n".join(lines)


def run(spec: Optional[LiveFaultsSpec] = None) -> LiveFaultsResult:
    """Run one live-faults experiment (blocking wrapper)."""
    return asyncio.run(run_async(spec if spec is not None else LiveFaultsSpec()))


def _pick_victims(spec: LiveFaultsSpec, peer_ids: List[str]) -> List[str]:
    """Seeded victim sample, drawn from the sorted boot population."""
    rng = DeterministicRNG(spec.seed).substream("livefaults-victims")
    return sorted(rng.sample(sorted(peer_ids), spec.victims))


async def run_async(spec: LiveFaultsSpec) -> LiveFaultsResult:
    """Boot with gossip, soak, SIGKILL mid-run, converge, score."""
    cluster = LiveCluster(
        num_peers=spec.peers,
        seed=spec.seed,
        num_nodes=spec.nodes,
        attribute_interval=spec.attribute_interval,
        attribute_intervals=(spec.attribute_interval, spec.attribute_interval),
        gossip=True,
        gossip_config=spec.gossip_config,
    )
    async with live_gateway(cluster, deadline=spec.deadline) as (gateway, _):
        policy = ResiliencePolicy(
            per_hop_timeout=spec.hop_timeout,
            max_retries=spec.retries,
            reroute=spec.reroute,
        )
        for executor in cluster.executors.values():
            executor.set_resilience(policy)
        session = await LiveSession.connect(*gateway.address, pool=spec.pool)
        try:
            await seed_population(session, spec, "livefaults")
            peer_ids = list(cluster.network.peer_ids())
            victims = _pick_victims(spec, peer_ids)
            # Queries originate at survivors (dead origins can't issue
            # queries), mirroring the simulated sweep's surviving-origin
            # workload — but their *reach* still spans the whole key space,
            # so detours through the victims' subtrees are exercised.
            survivors = [peer for peer in peer_ids if peer not in victims]
            jobs = make_mixed_jobs(
                seed=spec.seed,
                count=spec.queries,
                peer_ids=survivors,
                interval=spec.attribute_interval,
                range_size=spec.range_size,
                mira_fraction=spec.mira_fraction,
            )
            kill_at = int(spec.queries * spec.kill_after_fraction)
            #: resolves, at the kill, to the completions counted by then
            killed: "asyncio.Future[int]" = asyncio.get_running_loop().create_future()
            completions = 0

            def kill() -> None:
                for victim in victims:
                    # kill -9: the cluster only marks the process down; route
                    # withdrawal is the gossip plane's job.
                    cluster.crash_peer(victim)
                killed.set_result(completions)

            def count(_record: CompletedQuery) -> None:
                # The driver's completion listener, so the kill lands exactly
                # after query k and before the driver launches the next job.
                nonlocal completions
                completions += 1
                if completions == kill_at:
                    kill()

            if kill_at == 0:
                kill()
            started = time.perf_counter()
            soak = asyncio.create_task(
                run_jobs(session, jobs, concurrency=spec.concurrency, on_query_complete=count)
            )
            await asyncio.wait([soak, killed], return_when=asyncio.FIRST_COMPLETED)
            if not killed.done():
                await soak  # it ended before the kill point: raise what ended it
            kill_time = time.perf_counter()
            converged = False
            detection = float("nan")
            while time.perf_counter() - kill_time < spec.convergence_timeout:
                if cluster.membership_converged(expect_dead=victims):
                    converged = True
                    detection = time.perf_counter() - kill_time
                    break
                await asyncio.sleep(0.02)
            report = await soak
            wall = time.perf_counter() - started
            stats = await session.stats()
            stats["killed_after"] = killed.result()
            stats["obs"] = gateway.metrics.snapshot()
        finally:
            await session.close()
    # Scored the way the simulated fault sweep scores its queries.  Queries
    # answered before the kill score against the post-kill truth too, which
    # only helps them (their reach is a superset of it).
    successes, mean_c, min_c, deadline_failed = score_completeness(
        report.completed, cluster.executors, cluster.down_peers
    )
    return LiveFaultsResult(
        spec=spec,
        report=report,
        wall_seconds=wall,
        killed=victims,
        success_ratio=successes / max(1, report.queries),
        mean_completeness=mean_c,
        min_completeness=min_c,
        deadline_failed=deadline_failed,
        detection_seconds=detection,
        converged=converged,
        stats=stats,
    )
