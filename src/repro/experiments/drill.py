"""The fault drill: kill a fraction of the peers mid-run, score the queries.

One drill, two clocks.  ``repro faults`` runs it on the simulator (a
:class:`~repro.api.sim.SimSession` over an
:class:`~repro.core.armada.ArmadaSystem`) and ``repro livefaults`` on a
live cluster (a :class:`~repro.api.live.LiveSession` through a gateway in
front of a :class:`~repro.runtime.cluster.LiveCluster`).  Everything that
does not depend on the clock is decided here, once, from the
:class:`FaultDrill` spec — so both backends see the same inputs:

* **population** — :func:`seed_population` through the session, from the
  ``livefaults-values`` / ``livefaults-mvalues`` substreams of the drill
  seed, ``write_replicas`` copies per insert;
* **victims** — ``round(peers × fraction)`` of them (at most ``peers −
  3``), sampled from the ``livefaults-victims`` substream over the sorted
  boot PeerIDs;
* **workload** — :func:`~repro.runtime.loadgen.make_mixed_jobs` with
  origins drawn from the survivors (a dead peer issues no queries), run
  closed-loop through ``session.run_jobs``;
* **kill point** — from the load driver's completion listener, exactly
  after completion ``k = int(queries × KILL_AFTER_FRACTION)`` and before
  the next job launches, every victim dies through ``host.crash_peer``
  (mark down and power-fail; nothing is told out of band) unless the front
  end passes its own ``kill``;
* **score** — :func:`~repro.engine.reporting.score_completeness` against
  the live oracle (the victims forgiven) and the full one.

What is measured in clock units stays with the front end that knows the
clock: the per-hop timeout goes in through the resilience ``policy``, the
query deadline through the session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.api.requests import Insert, MultiInsert, Request, RequestOptions
from repro.api.session import Session
from repro.engine.reporting import (
    CompletedQuery,
    CompletenessScore,
    EngineReport,
    QueryJob,
    score_completeness,
)
from repro.faults import ResiliencePolicy
from repro.runtime.loadgen import make_mixed_jobs
from repro.sim.metrics import safe_ratio
from repro.sim.rng import DeterministicRNG
from repro.workloads.values import uniform_values

#: the victims die once this fraction of the workload has completed
KILL_AFTER_FRACTION = 0.25


@dataclass(frozen=True)
class FaultDrill:
    """The clock-free inputs of one drill (validated on construction)."""

    #: network size
    peers: int = 32
    #: seed of the overlay, the published values and the workload
    seed: int = 1
    #: number of objects published before the queries
    objects: int = 300
    #: number of queries in the run
    queries: int = 400
    #: closed-loop client population
    concurrency: int = 16
    #: fraction of the boot peers killed mid-run
    fraction: float = 0.2
    #: fraction of queries that are multi-attribute (MIRA)
    mira_fraction: float = 0.2
    range_size: float = 20.0
    attribute_interval: Tuple[float, float] = (0.0, 1000.0)
    #: durable copies per seeded insert (owner + prefix siblings, acked once
    #: every copy is synced); not the repetitions ``repro faults`` calls replicas
    write_replicas: int = 1

    #: not a field: every drill kills at the same point of its workload
    kill_after_fraction: ClassVar[float] = KILL_AFTER_FRACTION

    def __post_init__(self) -> None:
        # three survivors at least; a drill that kills nobody needs no fourth
        minimum = 4 if self.fraction > 0 else 3
        if self.peers < minimum:
            raise ValueError(f"need at least {minimum} peers")
        if self.queries < 1:
            raise ValueError("need at least one query")
        if self.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if self.objects < 0:
            raise ValueError("objects must be non-negative")
        if not 0.0 <= self.fraction <= 0.9:
            raise ValueError(f"failed fractions must be within [0, 0.9], got {self.fraction!r}")
        if not 0.0 <= self.mira_fraction <= 1.0:
            raise ValueError("mira-fraction must be within [0, 1]")
        low, high = self.attribute_interval
        if high <= low:
            raise ValueError("attribute interval must have positive width")
        if self.write_replicas < 1:
            raise ValueError("replicas must be at least 1")

    @property
    def victims(self) -> int:
        """How many peers die: ``round(peers × fraction)``, at most ``peers − 3``."""
        return min(self.peers - 3, round(self.peers * self.fraction))

    @property
    def kill_at(self) -> int:
        """The completion count after which the victims die."""
        return int(self.queries * KILL_AFTER_FRACTION)

    def pick_victims(self, peer_ids: Sequence[str]) -> List[str]:
        """The seeded victim sample, drawn from the sorted boot PeerIDs."""
        rng = DeterministicRNG(self.seed).substream("livefaults-victims")
        return sorted(rng.sample(sorted(peer_ids), self.victims))


@dataclass
class DrillOutcome:
    """What one drill measured, on whichever clock it ran."""

    report: EngineReport
    #: sorted PeerIDs killed mid-run
    victims: List[str]
    #: completions counted when the victims died
    kill_at: int
    #: the workload, in job order
    jobs: List[QueryJob]
    score: CompletenessScore

    @property
    def success_ratio(self) -> float:
        """Queries that beat their deadline and reached their whole live truth."""
        return safe_ratio(float(self.score.successes), float(self.report.queries), 1.0)

    def record(self) -> Dict[str, Any]:
        """The result-store fields both front ends' records carry."""
        score, resilience = self.score, self.report.resilience
        return {
            "queries": self.report.queries,
            "success_ratio": self.success_ratio,
            "mean_completeness": score.mean,
            "min_completeness": score.minimum,
            "full_mean_completeness": score.full_mean,
            "full_min_completeness": score.full_minimum,
            "deadline_failed": score.deadline_failed,
            "retries": resilience.retries,
            "reroutes": resilience.reroutes,
        }


async def seed_population(session: Session, drill: FaultDrill) -> None:
    """Publish ``drill.objects`` seeded single-attribute values, plus a
    quarter as many two-attribute records so MIRA queries have something to
    match, drawn from the ``livefaults-values`` / ``livefaults-mvalues``
    substreams of ``drill.seed``, ``drill.write_replicas`` copies each.

    Published in batches: each batch is posted back-to-back on the pooled
    connections and the replies stream in concurrently, so the seeding
    phase pipelines too.
    """
    low, high = drill.attribute_interval
    rng = DeterministicRNG(drill.seed)
    options = RequestOptions(replicas=drill.write_replicas)
    inserts: List[Request] = [
        Insert(value=value, options=options)
        for value in uniform_values(rng.substream("livefaults-values"), drill.objects, low, high)
    ]
    mrng = rng.substream("livefaults-mvalues")
    inserts.extend(
        MultiInsert(values=(mrng.uniform(low, high), mrng.uniform(low, high)), options=options)
        for _ in range(drill.objects // 4)
    )
    for index in range(0, len(inserts), 256):
        await session.batch(inserts[index : index + 256])


async def run_drill(
    drill: FaultDrill,
    session: Session,
    host: Any,
    policy: Optional[ResiliencePolicy],
    kill: Optional[Callable[[List[str]], None]] = None,
) -> DrillOutcome:
    """Run ``drill`` through ``session`` against ``host`` and score it.

    ``host`` is the :class:`~repro.core.armada.ArmadaSystem` or the
    :class:`~repro.runtime.cluster.LiveCluster` behind ``session``; the
    drill reads only its ``network.peer_ids()``, its ``executors`` (which
    take ``policy``) and its ``crash_peer``.  ``kill(victims)``, when
    given, replaces the ``crash_peer`` of every victim; it runs inside the
    completion listener, so it must not await.
    """
    for executor in host.executors.values():
        executor.set_resilience(policy)
    await seed_population(session, drill)
    peer_ids = list(host.network.peer_ids())
    victims = drill.pick_victims(peer_ids)
    jobs = make_mixed_jobs(
        seed=drill.seed,
        count=drill.queries,
        peer_ids=[peer for peer in peer_ids if peer not in victims],
        interval=drill.attribute_interval,
        range_size=drill.range_size,
        mira_fraction=drill.mira_fraction,
    )
    completions = 0

    def crash(victims: List[str]) -> None:
        for victim in victims:
            host.crash_peer(victim)

    die = kill if kill is not None else crash

    def count(_record: CompletedQuery) -> None:
        nonlocal completions
        completions += 1
        if completions == drill.kill_at:
            die(victims)

    if drill.kill_at == 0:
        die(victims)
    report = await session.run_jobs(
        jobs, mode="closed", concurrency=drill.concurrency, on_query_complete=count
    )
    # Queries answered before the kill score against the post-kill truth
    # too, which only helps them (their reach is a superset of it).
    score = score_completeness(report.completed, host.executors, victims)
    return DrillOutcome(report, victims, drill.kill_at, jobs, score)
