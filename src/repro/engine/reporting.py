"""Query jobs, per-query records and the aggregate run report.

One vocabulary, two clocks.  The one load driver
(:class:`~repro.engine.query_engine.LoadDriver`) measures the same things
on the simulator clock and on the asyncio clock — sojourn latency
percentiles, throughput over the makespan, success/failure splits,
resilience ledgers — in simulated units or wall-clock seconds.  This module
holds what it records and how a run is summed up:

* :class:`QueryJob` — one query to run (single-attribute PIRA or
  multi-attribute MIRA), with an arrival time on whichever clock drives it;
* :class:`CompletedQuery` — a finished job with its result and timing;
* :class:`EngineReport` — the aggregate outcome of a run, built by
  :func:`build_report` from the driver's
  :class:`~repro.sim.metrics.QueryTracker` plus its completed records;
* :func:`score_completeness` — how the fault drill (``repro faults`` on
  the simulator; ``repro livefaults`` and ``repro soak``, its two live
  presets) judges a run's records against the ground truth that is still
  alive, and against all of it.

Everything here serialises: ``to_wire`` / ``from_wire`` round-trip every
field through JSON, which is what lets the gateway ship query results and
run reports over the wire protocol byte-faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.pira import RangeQueryResult
from repro.faults.resilience import ResilienceStats
from repro.sim.metrics import QueryTracker, SummaryStats, safe_ratio


@dataclass(frozen=True)
class QueryJob:
    """One query to run through an engine or the live runtime.

    ``ranges`` set → multi-attribute (MIRA); otherwise ``[low, high]``
    single-attribute (PIRA).  ``origin`` should be chosen when the workload
    is generated so the job is fully deterministic; ``None`` falls back to a
    random peer drawn at launch time.
    """

    arrival: float = 0.0
    origin: Optional[str] = None
    low: float = 0.0
    high: float = 0.0
    ranges: Optional[Tuple[Tuple[float, float], ...]] = None

    @property
    def kind(self) -> str:
        """``"mira"`` for box queries, ``"pira"`` for single-attribute."""
        return "mira" if self.ranges is not None else "pira"

    @property
    def query_ranges(self) -> Tuple[Tuple[float, float], ...]:
        """The executors' ``ranges`` argument: one ``(low, high)`` per attribute."""
        return self.ranges if self.ranges is not None else ((self.low, self.high),)

    def to_wire(self) -> Dict[str, Any]:
        """JSON-compatible form carrying every field."""
        return {
            "arrival": self.arrival,
            "origin": self.origin,
            "low": self.low,
            "high": self.high,
            "ranges": None if self.ranges is None else [list(pair) for pair in self.ranges],
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "QueryJob":
        """Rebuild a job from :meth:`to_wire` output (post-JSON)."""
        ranges = wire.get("ranges")
        return cls(
            arrival=float(wire["arrival"]),
            origin=wire.get("origin"),
            low=float(wire["low"]),
            high=float(wire["high"]),
            ranges=None
            if ranges is None
            else tuple((float(low), float(high)) for low, high in ranges),
        )


@dataclass
class CompletedQuery:
    """A finished query: the job, its result and its timing."""

    job: QueryJob
    result: RangeQueryResult
    started_at: float
    completed_at: float

    @property
    def latency(self) -> float:
        """Sojourn time (arrival-to-last-destination) on the run's clock."""
        return self.completed_at - self.started_at

    @property
    def status(self) -> str:
        """The result's verdict (see :attr:`RangeQueryResult.status`)."""
        return self.result.status

    def to_wire(self) -> Dict[str, Any]:
        """JSON-compatible form carrying every field."""
        return {
            "job": self.job.to_wire(),
            "result": self.result.to_wire(),
            "started_at": self.started_at,
            "completed_at": self.completed_at,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "CompletedQuery":
        """Rebuild a record from :meth:`to_wire` output (post-JSON)."""
        return cls(
            job=QueryJob.from_wire(wire["job"]),
            result=RangeQueryResult.from_wire(wire["result"]),
            started_at=float(wire["started_at"]),
            completed_at=float(wire["completed_at"]),
        )


@dataclass
class EngineReport:
    """Aggregate outcome of one run (simulated or live)."""

    completed: List[CompletedQuery] = field(default_factory=list)
    started: int = 0
    makespan: float = 0.0
    throughput: float = 0.0
    latency_percentiles: Dict[str, float] = field(default_factory=dict)
    delay_percentiles: Dict[str, float] = field(default_factory=dict)
    mean_latency: float = 0.0
    mean_delay_hops: float = 0.0
    messages: int = 0
    events: int = 0
    #: completions with full results / with lost subtrees or deadline expiry
    succeeded: int = 0
    failed: int = 0
    #: queries started but neither completed nor failed when the run ended —
    #: a stall is *always* a bug (a leak the deadline and drop accounting
    #: exist to prevent), so it gets its own column
    stalled: int = 0
    #: forwarding messages of this run's completed queries that were lost
    dropped: int = 0
    #: aggregate failure/recovery ledger over all completed queries
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def queries(self) -> int:
        """Number of completed queries."""
        return len(self.completed)

    @property
    def success_ratio(self) -> float:
        """Fully-successful completions over all completions (1.0 when idle)."""
        return safe_ratio(float(self.succeeded), float(self.queries), default=1.0)

    def as_dict(self) -> Dict[str, float]:
        """Flat summary, handy for CSV/JSON emitters (counts stay ints)."""
        summary: Dict[str, float] = {
            "queries": self.queries,
            "started": self.started,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "stalled": self.stalled,
            "dropped": self.dropped,
            "success_ratio": self.success_ratio,
            "retries": self.resilience.retries,
            "timeouts": self.resilience.timeouts,
            "reroutes": self.resilience.reroutes,
            "subtrees_lost": self.resilience.subtrees_lost,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "mean_latency": self.mean_latency,
            "mean_delay_hops": self.mean_delay_hops,
            "messages": self.messages,
            "events": self.events,
        }
        for key, value in self.latency_percentiles.items():
            summary[f"latency_{key}"] = value
        for key, value in self.delay_percentiles.items():
            summary[f"delay_{key}"] = value
        return summary

    def to_wire(self) -> Dict[str, Any]:
        """JSON-compatible form carrying every field — unlike the flat
        :meth:`as_dict` summary, this round-trips the completed records and
        the resilience ledger through :meth:`from_wire` identically."""
        return {
            "completed": [record.to_wire() for record in self.completed],
            "started": self.started,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "latency_percentiles": dict(self.latency_percentiles),
            "delay_percentiles": dict(self.delay_percentiles),
            "mean_latency": self.mean_latency,
            "mean_delay_hops": self.mean_delay_hops,
            "messages": self.messages,
            "events": self.events,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "stalled": self.stalled,
            "dropped": self.dropped,
            "resilience": self.resilience.as_dict(),
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "EngineReport":
        """Rebuild a report from :meth:`to_wire` output (post-JSON)."""
        return cls(
            completed=[CompletedQuery.from_wire(item) for item in wire["completed"]],
            started=int(wire["started"]),
            makespan=float(wire["makespan"]),
            throughput=float(wire["throughput"]),
            latency_percentiles={k: float(v) for k, v in wire["latency_percentiles"].items()},
            delay_percentiles={k: float(v) for k, v in wire["delay_percentiles"].items()},
            mean_latency=float(wire["mean_latency"]),
            mean_delay_hops=float(wire["mean_delay_hops"]),
            messages=int(wire["messages"]),
            events=int(wire["events"]),
            succeeded=int(wire["succeeded"]),
            failed=int(wire["failed"]),
            stalled=int(wire["stalled"]),
            dropped=int(wire["dropped"]),
            resilience=ResilienceStats.from_dict(wire["resilience"]),
        )

    def format(self, clock: str = "sim") -> str:
        """Human-readable one-paragraph summary.

        ``clock`` names the time base the run was measured on: ``"sim"``
        (simulated units, the engine's default — output identical to the
        pre-extraction engine report) or ``"wall"`` (wall-clock seconds,
        the live runtime).
        """
        if clock == "sim":
            unit, per_unit, lat_label = "sim units", "sim unit", "latency (sim)     "
            events_line = f"simulator events  : {self.events}"
            mean_fmt, pct_fmt = ".2f", ".1f"
        else:
            unit, per_unit, lat_label = "seconds", "second", "latency (s)       "
            events_line = None
            # wall-clock sojourns on localhost are milliseconds, not units
            mean_fmt, pct_fmt = ".4f", ".4f"
        lat = self.latency_percentiles
        dly = self.delay_percentiles
        res = self.resilience
        lines = [
            f"queries completed : {self.queries} (started {self.started})",
            f"outcome           : {self.succeeded} ok, {self.failed} failed,"
            f" {self.stalled} stalled (success ratio {self.success_ratio:.3f})",
            f"makespan          : {self.makespan:.1f} {unit}",
            f"throughput        : {self.throughput:.3f} queries / {per_unit}",
            f"{lat_label}: mean {self.mean_latency:{mean_fmt}}"
            f"  p50 {lat.get('p50', 0.0):{pct_fmt}}  p95 {lat.get('p95', 0.0):{pct_fmt}}"
            f"  p99 {lat.get('p99', 0.0):{pct_fmt}}",
            f"delay (hops)      : mean {self.mean_delay_hops:.2f}"
            f"  p50 {dly.get('p50', 0.0):.1f}  p95 {dly.get('p95', 0.0):.1f}"
            f"  p99 {dly.get('p99', 0.0):.1f}",
            f"messages          : {self.messages}",
            f"resilience        : {self.dropped} dropped, {res.timeouts} timeouts,"
            f" {res.retries} retries, {res.reroutes} reroutes,"
            f" {res.subtrees_lost} subtrees lost",
        ]
        if events_line is not None:
            lines.append(events_line)
        return "\n".join(lines)


def build_report(
    tracker: QueryTracker,
    completed: Sequence[CompletedQuery],
    messages: int = 0,
    events: int = 0,
) -> EngineReport:
    """Assemble the :class:`EngineReport` for one run.

    ``dropped`` sums the completed queries' own ledgers: the executors
    charge every message the transport loses to the query that sent it.
    """
    aggregate = ResilienceStats()
    dropped = 0
    for record in completed:
        aggregate.merge(record.result.resilience)
        dropped += record.result.resilience.drops
    return EngineReport(
        completed=list(completed),
        started=tracker.started,
        makespan=tracker.makespan,
        throughput=tracker.throughput(),
        latency_percentiles=tracker.latency.percentiles(),
        delay_percentiles=tracker.delay_hops.percentiles(),
        mean_latency=tracker.latency.mean,
        mean_delay_hops=tracker.delay_hops.mean,
        messages=messages,
        events=events,
        succeeded=tracker.succeeded,
        failed=tracker.failed,
        stalled=tracker.in_flight,
        dropped=dropped,
        resilience=aggregate,
    )


class CompletenessScore(NamedTuple):
    """A run's records scored against both oracles (see :func:`score_completeness`)."""

    successes: int
    #: mean / min completeness against the live oracle (the ``down`` peers forgiven)
    mean: float
    minimum: float
    deadline_failed: int
    #: mean / min completeness against the full oracle — what a client wanted
    full_mean: float
    full_minimum: float


def score_completeness(
    completed: Sequence[CompletedQuery], executors: Mapping[str, Any], down: Collection[str]
) -> CompletenessScore:
    """Score records against the live oracle and against the full one.

    Ground truth is the executors' own ``ground_truth_destinations`` — the
    peers that *should* answer given the key-space partition.  The live
    oracle removes the ``down`` peers, whose data is genuinely unreachable
    and not charged against the scheme; completeness is the fraction of
    that live truth a query reached, and it succeeds when it reached all of
    it and beat its deadline.  The full oracle keeps the ``down`` peers, so
    its completeness charges the scheme for every zone it lost.
    """
    completeness = SummaryStats()
    full_completeness = SummaryStats()
    successes = deadline_failed = 0
    down = set(down)
    for record in completed:
        job = record.job
        truth = executors[job.kind].ground_truth_destinations(job.query_ranges)
        reached = truth.intersection(record.result.destinations)
        live_truth = truth - down
        fraction = len(reached - down) / len(live_truth) if live_truth else 1.0
        completeness.add(fraction)
        full_completeness.add(len(reached) / len(truth) if truth else 1.0)
        if record.result.failed:
            deadline_failed += 1
        elif fraction >= 1.0:
            successes += 1
    return CompletenessScore(
        successes,
        completeness.mean,
        completeness.minimum,
        deadline_failed,
        full_completeness.mean,
        full_completeness.minimum,
    )
