"""Robustness under failure: the paper's query-success-vs-failure experiment.

The source paper evaluates its range-query schemes as peers fail: how many
queries still succeed, and how complete their results are, when a fraction
of the network has crashed.  This module reproduces that curve on the
fault-injection subsystem (:mod:`repro.faults`):

* the grid is ``schemes × failed-fractions × replicas``; every point is an
  independent, seeded :class:`FaultJob` routed through the shared
  multiprocess fan-out engine (:func:`repro.experiments.orchestrator.run_jobs`)
  and streamed into a :class:`~repro.analysis.store.ResultStore`, exactly
  like the figure sweeps;
* each job crash-stops ``failed_fraction`` of the peers at time zero (no
  repair — the namespace keeps the dead zones, as in the paper's failure
  model), then pushes an open-loop Poisson batch of Zipf-positioned range
  queries from surviving origins through the one load driver on the
  simulator clock (:class:`~repro.engine.QueryEngine`) with a per-query
  deadline;
* ``pira`` runs with the full resilience policy (per-hop timeouts, bounded
  retries, sibling rerouting); ``pira-basic`` runs the seed protocol with
  no recovery, which is the degradation curve the paper's baseline shows;
  ``mira`` exercises the multi-attribute executor under the same faults;
* per query, result **completeness** is measured against the oracle of
  *live* ground-truth destinations (data on crashed peers is genuinely
  unreachable and not charged against the scheme); a query **succeeds**
  when it beats its deadline and retrieves every live result
  (:func:`~repro.engine.reporting.score_completeness`, shared with
  ``repro livefaults``).

Reported per point: success ratio, mean/min completeness, deadline
failures, retry/reroute counts and the retry overhead (extra transmissions
per forwarding message), plus the usual latency and message statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.figures import ascii_chart
from repro.analysis.store import ResultStore
from repro.analysis.tables import format_records
from repro.core.armada import ArmadaSystem
from repro.engine import QueryEngine, QueryJob, score_completeness
from repro.experiments.common import ExperimentConfig
from repro.experiments.orchestrator import run_jobs
from repro.faults import CrashStop, FaultPlan, ResiliencePolicy, default_deadline
from repro.sim.metrics import safe_ratio
from repro.sim.rng import DeterministicRNG, derive_seed
from repro.workloads.arrivals import poisson_arrival_times, zipf_range_queries
from repro.workloads.values import uniform_values

#: failed fractions swept by default (the paper's x-axis)
DEFAULT_FRACTIONS: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)

#: scheme variants of the faults grid
FAULT_SCHEMES: Tuple[str, ...] = ("pira", "pira-basic", "mira")

#: swept when the caller does not choose: resilient PIRA vs the seed protocol
DEFAULT_FAULT_SCHEMES: Tuple[str, ...] = ("pira", "pira-basic")


@dataclass(frozen=True)
class FaultJob:
    """One independent point of the robustness grid (picklable)."""

    scheme: str
    failed_fraction: float
    replica: int
    seed: int
    config: ExperimentConfig
    timeout: float = 4.0
    retries: int = 2
    reroute: bool = True
    deadline: Optional[float] = None
    rate: float = 4.0

    def key(self) -> Tuple[str, float, int]:
        """Canonical sort/identity key of the job inside its sweep."""
        return (self.scheme, self.failed_fraction, self.replica)


@dataclass(frozen=True)
class FaultSweepSpec:
    """The full description of a robustness sweep grid."""

    config: ExperimentConfig
    schemes: Tuple[str, ...] = DEFAULT_FAULT_SCHEMES
    fractions: Tuple[float, ...] = DEFAULT_FRACTIONS
    replicas: int = 1
    timeout: float = 4.0
    retries: int = 2
    reroute: bool = True
    deadline: Optional[float] = None
    rate: float = 4.0

    def __post_init__(self) -> None:
        unknown = [name for name in self.schemes if name not in FAULT_SCHEMES]
        if unknown:
            raise ValueError(
                f"unknown fault scheme(s) {unknown!r}; available: {sorted(FAULT_SCHEMES)}"
            )
        if not self.schemes:
            raise ValueError("a faults sweep needs at least one scheme")
        if not self.fractions:
            raise ValueError("a faults sweep needs at least one failed fraction")
        bad = [f for f in self.fractions if not 0.0 <= f <= 0.9]
        if bad:
            raise ValueError(f"failed fractions must be within [0, 0.9], got {bad!r}")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig,
        schemes: Sequence[str] = DEFAULT_FAULT_SCHEMES,
        fractions: Optional[Sequence[float]] = None,
        replicas: int = 1,
        **knobs: Any,
    ) -> "FaultSweepSpec":
        """A spec over the default (paper) failed-fraction axis."""
        return cls(
            config=config,
            schemes=tuple(schemes),
            fractions=(
                tuple(float(f) for f in fractions)
                if fractions is not None
                else DEFAULT_FRACTIONS
            ),
            replicas=replicas,
            **knobs,
        )

    def jobs(self) -> List[FaultJob]:
        """Expand the grid into jobs, in canonical (sorted-key) order.

        As in the figure sweeps, each job's seed is derived from its
        normalised grid coordinates, so any job re-runs identically in
        isolation, in any worker, in any order.
        """
        result: List[FaultJob] = []
        for scheme in self.schemes:
            for raw_fraction in self.fractions:
                for replica in range(self.replicas):
                    fraction = float(raw_fraction)
                    seed = derive_seed(self.config.seed, "faults", scheme, fraction, replica)
                    result.append(
                        FaultJob(
                            scheme=scheme,
                            failed_fraction=fraction,
                            replica=replica,
                            seed=seed,
                            config=self.config,
                            timeout=self.timeout,
                            retries=self.retries,
                            reroute=self.reroute,
                            deadline=self.deadline,
                            rate=self.rate,
                        )
                    )
        result.sort(key=FaultJob.key)
        return result


def _build_system(job: FaultJob) -> ArmadaSystem:
    """Build and load the (seeded) system one fault job runs against."""
    config = job.config
    intervals = (
        ((config.attribute_low, config.attribute_high),) * 2
        if job.scheme == "mira"
        else None
    )
    system = ArmadaSystem(
        num_peers=config.peers,
        seed=job.seed,
        attribute_interval=(config.attribute_low, config.attribute_high),
        attribute_intervals=intervals,
        object_id_length=config.object_id_length,
    )
    rng = DeterministicRNG(job.seed).substream("fault-values")
    if job.scheme == "mira":
        for _ in range(config.objects):
            record = (
                rng.uniform(config.attribute_low, config.attribute_high),
                rng.uniform(config.attribute_low, config.attribute_high),
            )
            system.insert_multi(record, payload=record)
    else:
        system.insert_many(
            uniform_values(rng, config.objects, config.attribute_low, config.attribute_high)
        )
    return system


def _make_jobs(job: FaultJob, system: ArmadaSystem, live: Sequence[str]) -> List[QueryJob]:
    """The seeded open-loop workload issued from surviving origins."""
    config = job.config
    count = config.queries_per_point
    rng = DeterministicRNG(job.seed)
    start = system.overlay.simulator.now
    arrivals = poisson_arrival_times(rng.substream("fault-arrivals"), job.rate, count, start=start)
    origin_rng = rng.substream("fault-origins")
    origins = [origin_rng.choice(live) for _ in range(count)]
    if job.scheme == "mira":
        first = zipf_range_queries(
            rng.substream("fault-ranges", 0), count, config.fixed_range_size,
            low=config.attribute_low, high=config.attribute_high,
        )
        second = zipf_range_queries(
            rng.substream("fault-ranges", 1), count, config.fixed_range_size * 4,
            low=config.attribute_low, high=config.attribute_high,
        )
        return [
            QueryJob(arrival=arrivals[i], origin=origins[i], ranges=(first[i], second[i]))
            for i in range(count)
        ]
    queries = zipf_range_queries(
        rng.substream("fault-ranges"), count, config.fixed_range_size,
        low=config.attribute_low, high=config.attribute_high,
    )
    return [
        QueryJob(arrival=arrivals[i], origin=origins[i], low=low, high=high)
        for i, (low, high) in enumerate(queries)
    ]


def run_fault_job(job: FaultJob) -> Dict[str, Any]:
    """Run one robustness point to completion and return its flat record.

    Module-level and self-contained (the unit of work shipped to pool
    workers): it builds the system, crashes the peers, runs the query batch
    and measures completeness against the live oracle, from nothing but the
    job description.  Counts land as ints, ratios as floats — JSON-ready.
    """
    system = _build_system(job)
    resilient = job.scheme != "pira-basic"
    policy = (
        ResiliencePolicy(
            per_hop_timeout=job.timeout, max_retries=job.retries, reroute=job.reroute
        )
        if resilient
        else None
    )
    system.set_resilience(policy)

    plan = (
        FaultPlan([CrashStop(fraction=job.failed_fraction, at=0.0)],
                  seed=derive_seed(job.seed, "fault-plan"))
        if job.failed_fraction > 0.0
        else FaultPlan.empty()
    )
    injector = system.install_faults(plan)
    system.overlay.run(until=0.0)  # fire the crash event before any query
    down = injector.down_ids if injector is not None else set()
    live = system.live_peer_ids()

    deadline = (
        job.deadline if job.deadline is not None else default_deadline(policy, system.log_size())
    )
    report = QueryEngine(system, deadline=deadline).run_open_loop(_make_jobs(job, system, live))
    # Oracle completeness vs the live ground truth (the crash set is fixed
    # at time zero, so scoring after the run equals scoring at completion).
    successes, mean_completeness, min_completeness, deadline_failed = score_completeness(
        report.completed, system.executors, down
    )
    res = report.resilience
    record: Dict[str, Any] = {
        "scheme": job.scheme,
        "failed_fraction": job.failed_fraction,
        "replica": job.replica,
        "job_seed": job.seed,
        "peers": system.size,
        "failed_peers": len(down),
        "queries": report.queries,
        "succeeded": successes,
        "success_ratio": safe_ratio(float(successes), float(report.queries), 1.0),
        "mean_completeness": mean_completeness,
        "min_completeness": min_completeness,
        "deadline_failed": deadline_failed,
        # protocol-level partial completions: some subtree was lost, which
        # includes subtrees whose only data sat on crashed peers
        "partial": report.failed - deadline_failed,
        "stalled": report.stalled,
        "messages": report.messages,
        "dropped": report.dropped,
        "timeouts": res.timeouts,
        "retries": res.retries,
        "reroutes": res.reroutes,
        "subtrees_lost": res.subtrees_lost,
        "recovered_destinations": res.recovered_destinations,
        "retry_overhead": safe_ratio(float(res.retries + res.reroutes), float(report.messages)),
        "mean_latency": report.mean_latency,
        "latency_p95": report.latency_percentiles.get("p95", 0.0),
        "mean_delay_hops": report.mean_delay_hops,
        "deadline": deadline,
    }
    return record


@dataclass
class FaultSweepOutcome:
    """All records of one robustness sweep, in canonical job order."""

    spec: FaultSweepSpec
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def jobs(self) -> int:
        """Number of completed grid points."""
        return len(self.records)

    def curve(self, metric: str = "success_ratio") -> Tuple[List[float], Dict[str, List[float]]]:
        """``metric`` vs failed fraction, averaged over replicas, per scheme."""
        xs = sorted({record["failed_fraction"] for record in self.records})
        series: Dict[str, List[float]] = {}
        for scheme in self.spec.schemes:
            row: List[float] = []
            for fraction in xs:
                points = [
                    record[metric]
                    for record in self.records
                    if record["scheme"] == scheme and record["failed_fraction"] == fraction
                ]
                row.append(sum(points) / len(points) if points else 0.0)
            series[scheme] = row
        return xs, series

    def format(self) -> str:
        """Aligned table plus the success/completeness curves, for the terminal."""
        columns = [
            "scheme",
            "failed_fraction",
            "replica",
            "success_ratio",
            "mean_completeness",
            "deadline_failed",
            "partial",
            "stalled",
            "retries",
            "reroutes",
            "subtrees_lost",
            "retry_overhead",
            "latency_p95",
            "messages",
        ]
        title = (
            f"Robustness under failure: {len(self.records)} points "
            f"({' × '.join(self.spec.schemes)}; seed {self.spec.config.seed}; "
            f"timeout {self.spec.timeout}, retries {self.spec.retries}, "
            f"reroute {'on' if self.spec.reroute else 'off'})"
        )
        parts = [format_records(self.records, columns=columns, title=title)]
        xs, success = self.curve("success_ratio")
        parts.append(ascii_chart(xs, success, title="Success ratio vs failed fraction"))
        xs, completeness = self.curve("mean_completeness")
        parts.append(
            ascii_chart(xs, completeness, title="Result completeness vs failed fraction")
        )
        return "\n\n".join(parts)


def run_sweep(
    spec: FaultSweepSpec,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> FaultSweepOutcome:
    """Run every point of the robustness grid through the shared fan-out
    engine; records stream into ``store`` in canonical order and the merge
    is byte-identical whether serial or parallel."""
    outcome = FaultSweepOutcome(spec=spec)
    outcome.records = run_jobs(
        spec.jobs(), run_fault_job, workers=workers, store=store, progress=progress
    )
    return outcome


def run(config: ExperimentConfig, fractions: Optional[Sequence[float]] = None) -> FaultSweepOutcome:
    """Serial convenience entry point (used by ``repro all``)."""
    return run_sweep(FaultSweepSpec.from_config(config, fractions=fractions))
