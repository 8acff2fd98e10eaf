"""Robustness under failure: the paper's query-success-vs-failure experiment.

The source paper evaluates its range-query schemes as peers fail: how many
queries still succeed, and how complete their results are, when a fraction
of the network has crashed.  This module reproduces that curve with the
fault drill (:mod:`repro.experiments.drill`) on the simulator clock:

* the grid is ``schemes × failed-fractions × replicas``; every point is an
  independent, seeded :class:`FaultPoint` — a
  :class:`~repro.experiments.drill.FaultDrill` plus the scheme and the
  resilience knobs in simulated time units — routed through the shared
  multiprocess fan-out engine (:func:`repro.experiments.orchestrator.run_jobs`)
  and streamed into a :class:`~repro.analysis.store.ResultStore`, exactly
  like the figure sweeps;
* each point runs the drill through a :class:`~repro.api.sim.SimSession`
  over an :class:`~repro.core.armada.ArmadaSystem`: the seeded population,
  a closed-loop mixed workload from surviving origins, and — exactly after
  a quarter of the queries have completed — ``failed_fraction`` of the
  peers crash with no repair (the namespace keeps the dead zones, as in
  the paper's failure model); the same drill ``repro livefaults`` runs on
  a live cluster;
* ``pira`` runs with the full resilience policy (per-hop timeouts, bounded
  retries, sibling rerouting); ``pira-basic`` runs the seed protocol with
  no recovery, which is the degradation curve the paper's baseline shows;
  ``mira`` exercises the multi-attribute executor under the same faults
  (every query a box);
* per query, result **completeness** is measured against the oracle of
  *live* ground-truth destinations (data on crashed peers is genuinely
  unreachable and not charged against the scheme) and against the full
  oracle; a query **succeeds** when it beats its deadline and retrieves
  every live result (:func:`~repro.engine.reporting.score_completeness`).

Reported per point: success ratio, mean/min completeness against both
oracles, deadline failures, retry/reroute counts and the retry overhead
(extra transmissions per forwarding message), plus the usual latency and
message statistics.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.figures import ascii_chart, records_to_series
from repro.analysis.store import ResultStore
from repro.analysis.tables import format_records
from repro.api.sim import SimSession
from repro.core.armada import ArmadaSystem
from repro.experiments.common import ExperimentConfig
from repro.experiments.drill import FaultDrill, run_drill
from repro.experiments.orchestrator import run_jobs
from repro.faults import ResiliencePolicy, default_deadline
from repro.sim.metrics import safe_ratio
from repro.sim.rng import derive_seed

#: failed fractions swept by default (the paper's x-axis)
DEFAULT_FRACTIONS: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)

#: scheme variants of the faults grid, with the share of MIRA queries each drills
FAULT_SCHEMES: Dict[str, float] = {"pira": 0.0, "pira-basic": 0.0, "mira": 1.0}

#: swept when the caller does not choose: resilient PIRA vs the seed protocol
DEFAULT_FAULT_SCHEMES: Tuple[str, ...] = ("pira", "pira-basic")


@dataclass(frozen=True)
class FaultPoint(FaultDrill):
    """One independent point of the robustness grid (picklable): the drill
    plus its scheme, repetition and resilience knobs in simulated units."""

    scheme: str = "pira"
    replica: int = 0
    object_id_length: int = 32
    timeout: float = 4.0
    retries: int = 2
    reroute: bool = True
    deadline: Optional[float] = None

    def key(self) -> Tuple[str, float, int]:
        """Canonical sort/identity key of the point inside its sweep."""
        return (self.scheme, self.fraction, self.replica)

    @property
    def policy(self) -> Optional[ResiliencePolicy]:
        """The resilience policy the scheme runs with (none for ``pira-basic``)."""
        if self.scheme == "pira-basic":
            return None
        return ResiliencePolicy(
            per_hop_timeout=self.timeout, max_retries=self.retries, reroute=self.reroute
        )


@dataclass(frozen=True)
class FaultSweepSpec:
    """The full description of a robustness sweep grid."""

    config: ExperimentConfig
    schemes: Tuple[str, ...] = DEFAULT_FAULT_SCHEMES
    fractions: Tuple[float, ...] = DEFAULT_FRACTIONS
    replicas: int = 1
    #: per-hop timeout in simulated units
    timeout: float = 4.0
    #: retransmissions per hop after the initial send
    retries: int = 2
    reroute: bool = True
    #: per-query deadline in simulated units (None derives it from N and the
    #: retry budget)
    deadline: Optional[float] = None

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
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        self.jobs()  # every point is a FaultDrill, which validates itself

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

    def jobs(self) -> List[FaultPoint]:
        """Expand the grid into points, in canonical (sorted-key) order.

        As in the figure sweeps, each point's seed is derived from its
        normalised grid coordinates, so any point re-runs identically in
        isolation, in any worker, in any order.
        """
        config = self.config
        result = [
            FaultPoint(
                peers=config.peers,
                seed=derive_seed(config.seed, "faults", scheme, float(fraction), replica),
                objects=config.objects,
                queries=config.queries_per_point,
                fraction=float(fraction),
                mira_fraction=FAULT_SCHEMES[scheme],
                range_size=config.fixed_range_size,
                attribute_interval=(config.attribute_low, config.attribute_high),
                scheme=scheme,
                replica=replica,
                object_id_length=config.object_id_length,
                timeout=self.timeout,
                retries=self.retries,
                reroute=self.reroute,
                deadline=self.deadline,
            )
            for scheme in self.schemes
            for fraction in self.fractions
            for replica in range(self.replicas)
        ]
        result.sort(key=FaultPoint.key)
        return result


def run_fault_job(point: FaultPoint) -> Dict[str, Any]:
    """Run one robustness point to completion and return its flat record.

    Module-level and self-contained (the unit of work shipped to pool
    workers): it builds the system and runs the drill on it from nothing
    but the point.  Counts land as ints, ratios as floats — JSON-ready.
    """
    system = ArmadaSystem(
        num_peers=point.peers,
        seed=point.seed,
        attribute_interval=point.attribute_interval,
        attribute_intervals=(point.attribute_interval,) * 2,
        object_id_length=point.object_id_length,
    )
    policy = point.policy
    deadline = point.deadline
    if deadline is None:
        deadline = default_deadline(policy, system.log_size())
    outcome = asyncio.run(run_drill(point, SimSession(system, deadline), system, policy))
    report = outcome.report
    res = report.resilience
    return {
        "scheme": point.scheme,
        "failed_fraction": point.fraction,
        "replica": point.replica,
        "job_seed": point.seed,
        "peers": system.size,
        "failed_peers": len(outcome.victims),
        **outcome.record(),
        "succeeded": outcome.score.successes,
        # protocol-level partial completions: some subtree was lost, which
        # includes subtrees whose only data sat on crashed peers
        "partial": report.failed - outcome.score.deadline_failed,
        "stalled": report.stalled,
        "messages": report.messages,
        "dropped": report.dropped,
        "timeouts": res.timeouts,
        "subtrees_lost": res.subtrees_lost,
        "recovered_destinations": res.recovered_destinations,
        "retry_overhead": safe_ratio(float(res.retries + res.reroutes), float(report.messages)),
        "mean_latency": report.mean_latency,
        "latency_p95": report.latency_percentiles.get("p95", 0.0),
        "mean_delay_hops": report.mean_delay_hops,
        "deadline": deadline,
    }


@dataclass
class FaultSweepOutcome:
    """All records of one robustness sweep, in canonical job order."""

    spec: FaultSweepSpec
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def jobs(self) -> int:
        """Number of completed grid points."""
        return len(self.records)

    def curve(
        self, metric: str = "success_ratio"
    ) -> Tuple[List[float], Dict[str, List[Optional[float]]]]:
        """``metric`` vs failed fraction, averaged over replicas, per scheme."""
        return records_to_series(self.records, "failed_fraction", metric, group_key="scheme")

    def format(self) -> str:
        """Aligned table plus the success/completeness curves, for the terminal."""
        columns = [
            "scheme",
            "failed_fraction",
            "replica",
            "success_ratio",
            "mean_completeness",
            "full_mean_completeness",
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
