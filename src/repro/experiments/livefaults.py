"""The livefaults experiment: the fault drill, kill -9 under live load.

``repro livefaults`` runs the fault drill (:mod:`repro.experiments.drill`)
— the one ``repro faults`` runs on the simulator — on a live cluster: it
boots a gossip-enabled asyncio cluster behind a gateway, drives the drill
through a pooled :class:`~repro.api.LiveSession`, and exactly after query
``k = int(queries × 0.25)`` the victims are hard-killed (``kill -9``
semantics: no goodbye, route left dangling).  No component is told about
the failures out of band: the SWIM control plane has to detect them (ping →
ping-req → suspect → dead), withdraw the victims' routes, and the
resilience layer has to detour the in-flight and subsequent queries around
the holes.  This front end adds what only a live run has: the wall-clock
resilience policy and deadline, gossip, and the time membership took to
converge on the deaths.

The drill scores every query the way the simulated sweep does, so the live
``success_ratio`` is directly comparable to the ``repro faults`` figure for
resilient PIRA at the same failed fraction —
``tests/paper/test_livefaults.py`` asserts the two land within a small gap
of each other.

The run asserts nothing by itself; the CLI's ``--require-success`` and
``--require-convergence`` turn the success ratio and the membership
verdict into exit codes for the CI churn-smoke job.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Any, Collection, Dict, List, Optional

from repro.api.live import LiveSession
from repro.engine.reporting import EngineReport
from repro.experiments.drill import DrillOutcome, FaultDrill, run_drill
from repro.faults import ResiliencePolicy
from repro.gossip import SwimConfig
from repro.runtime.cluster import LiveCluster
from repro.runtime.server import live_gateway

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
class LiveFaultsSpec(FaultDrill):
    """The drill plus the live-only parameters (validated on construction)."""

    nodes: Optional[int] = 8
    pool: int = 4
    #: per-query deadline, wall-clock seconds
    deadline: float = 5.0
    #: resilience policy applied to the live executors (wall-clock seconds)
    hop_timeout: float = 0.3
    retries: int = 2
    reroute: bool = True
    gossip_config: SwimConfig = FAST_SWIM
    #: give up waiting for membership convergence after this many seconds
    convergence_timeout: float = 15.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes is not None and self.nodes < 1:
            raise ValueError("nodes must be positive")
        if self.pool < 1:
            raise ValueError("pool must be at least 1")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.hop_timeout <= 0:
            raise ValueError("hop-timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.convergence_timeout <= 0:
            raise ValueError("convergence-timeout must be positive")

    @property
    def policy(self) -> ResiliencePolicy:
        """The resilience policy the live executors run with."""
        return ResiliencePolicy(
            per_hop_timeout=self.hop_timeout, max_retries=self.retries, reroute=self.reroute
        )


@dataclass
class LiveFaultsResult:
    """Outcome of one live-faults run."""

    spec: LiveFaultsSpec
    drill: DrillOutcome
    #: seconds from SIGKILL to a converged all-dead membership view (NaN
    #: when the views did not converge in time)
    detection_seconds: float
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def report(self) -> EngineReport:
        return self.drill.report

    @property
    def killed(self) -> List[str]:
        return self.drill.victims

    @property
    def success_ratio(self) -> float:
        return self.drill.success_ratio

    @property
    def converged(self) -> bool:
        return not math.isnan(self.detection_seconds)

    @property
    def wall_seconds(self) -> float:
        """Wall-clock span of the query phase (first launch to last completion)."""
        return self.report.makespan

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
            "killed": len(self.killed),
            "failed_fraction": self.failed_fraction,
            **self.drill.record(),
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
        score, resilience = self.drill.score, self.report.resilience
        lines = [
            "Live faults (SIGKILL mid-soak, gossip detection, resilient queries)",
            f"cluster           : {self.spec.peers} peers on "
            f"{self.stats.get('nodes', '?')} nodes, seed {self.spec.seed}, gossip on",
            f"killed            : {len(self.killed)}/{self.spec.peers} peers "
            f"({self.failed_fraction:.0%}) after "
            f"{self.drill.kill_at} queries: {', '.join(self.killed)}",
            f"detection         : "
            + (
                f"membership converged on the deaths in {self.detection_seconds:.2f}s"
                if self.converged
                else "membership did NOT converge "
                f"(waited {self.spec.convergence_timeout:g}s)"
            ),
            f"success ratio     : {self.success_ratio:.4f} "
            f"(vs surviving-peer ground truth; {score.deadline_failed} deadline-failed)",
            f"completeness      : mean {score.mean:.4f}, min {score.minimum:.4f}; "
            f"full oracle mean {score.full_mean:.4f}, min {score.full_minimum:.4f}",
            f"resilience        : {resilience.retries} retries, "
            f"{resilience.reroutes} reroutes",
            f"wall time         : {self.wall_seconds:.2f}s "
            f"({self.report.queries / max(self.wall_seconds, 1e-9):,.0f} queries/sec)",
        ]
        return "\n".join(lines)


def run(spec: Optional[LiveFaultsSpec] = None) -> LiveFaultsResult:
    """Run one live-faults experiment (blocking wrapper)."""
    return asyncio.run(run_async(spec if spec is not None else LiveFaultsSpec()))


async def _detection(cluster: LiveCluster, dead: Collection[str], timeout: float) -> float:
    """Seconds until every membership view holds ``dead`` dead, or NaN
    after ``timeout`` seconds without that."""
    killed = time.perf_counter()
    while time.perf_counter() - killed < timeout:
        if cluster.membership_converged(expect_dead=dead):
            return time.perf_counter() - killed
        await asyncio.sleep(0.02)
    return float("nan")


async def run_async(spec: LiveFaultsSpec) -> LiveFaultsResult:
    """Boot with gossip, run the drill, time the convergence on the deaths."""
    cluster = LiveCluster(
        num_peers=spec.peers,
        seed=spec.seed,
        num_nodes=spec.nodes,
        attribute_interval=spec.attribute_interval,
        attribute_intervals=(spec.attribute_interval, spec.attribute_interval),
        gossip=True,
        gossip_config=spec.gossip_config,
    )
    detections: List["asyncio.Task[float]"] = []

    def on_kill() -> None:
        # kill -9: the cluster only marks the victims down; withdrawing their
        # routes is the gossip plane's job, timed from here.
        dead = set(cluster.down_peers)
        detections.append(
            asyncio.create_task(_detection(cluster, dead, spec.convergence_timeout))
        )

    async with live_gateway(cluster, deadline=spec.deadline) as (gateway, _):
        session = await LiveSession.connect(*gateway.address, pool=spec.pool)
        try:
            outcome = await run_drill(spec, session, cluster, spec.policy, on_kill)
            detection = await detections[0]
            stats = await session.stats()
            stats["killed_after"] = outcome.kill_at
            stats["obs"] = gateway.metrics.snapshot()
        finally:
            await session.close()
    return LiveFaultsResult(spec=spec, drill=outcome, detection_seconds=detection, stats=stats)
