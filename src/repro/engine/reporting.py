"""Query jobs, per-query records and the aggregate run report.

One vocabulary, two clocks.  The one load driver
(:class:`~repro.engine.query_engine.LoadDriver`) measures the same things
on the simulator clock and on the asyncio clock — sojourn latency
percentiles, throughput over the makespan, success/failure splits,
resilience ledgers — in simulated units or wall-clock seconds.  This module
holds what it records and how a run is summed up:

* :class:`QueryJob` — one query to run (single-attribute PIRA or
  multi-attribute MIRA), with an arrival time on whichever clock drives it;
* :class:`CompletedQuery` — a finished job with its result and timing, the
  run's one ledger entry per query;
* :class:`EngineReport` — the aggregate outcome of a run: every figure is
  computed from its completed records, the driver's launch count and its
  first launch instant;
* :func:`score_completeness` — how the fault drill (``repro faults`` on
  the simulator; ``repro livefaults`` and ``repro soak``, its two live
  presets) judges a run's records against the ground truth that is still
  alive, and against all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Collection, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.pira import RangeQueryResult
from repro.faults.resilience import ResilienceStats
from repro.sim.metrics import SummaryStats, safe_ratio


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


@dataclass
class EngineReport:
    """Aggregate outcome of one run (simulated or live).

    Only the completed records, the launch count, the first launch instant
    and the message / event counts are stored; every other figure is a
    property computed from the records.
    """

    completed: List[CompletedQuery] = field(default_factory=list)
    #: queries the driver launched, completed or not
    started: int = 0
    #: the driver's first launch instant (``None`` when nothing launched)
    first_launch: Optional[float] = None
    messages: int = 0
    events: int = 0

    @property
    def queries(self) -> int:
        """Number of completed queries."""
        return len(self.completed)

    @property
    def makespan(self) -> float:
        """Time from the first launch — of any query, a stalled one too — to
        the last completion (0.0 when nothing completed)."""
        if self.first_launch is None or not self.completed:
            return 0.0
        last = max(record.completed_at for record in self.completed)
        return max(0.0, last - self.first_launch)

    @property
    def throughput(self) -> float:
        """Completed queries per time unit over the makespan."""
        return safe_ratio(float(self.queries), self.makespan)

    def _series(self, measure: Callable[[CompletedQuery], float]) -> SummaryStats:
        stats = SummaryStats()
        stats.extend(measure(record) for record in self.completed)
        return stats

    @property
    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the sojourn latency."""
        return self._series(lambda record: record.latency).percentiles()

    @property
    def delay_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the hop delay."""
        return self._series(lambda record: record.result.delay_hops).percentiles()

    @property
    def mean_latency(self) -> float:
        """Mean sojourn latency (0.0 when nothing completed)."""
        return self._series(lambda record: record.latency).mean

    @property
    def mean_delay_hops(self) -> float:
        """Mean hop delay (0.0 when nothing completed)."""
        return self._series(lambda record: record.result.delay_hops).mean

    @property
    def succeeded(self) -> int:
        """Completions with full results."""
        return sum(1 for record in self.completed if record.result.complete)

    @property
    def failed(self) -> int:
        """Completions with lost subtrees or deadline expiry."""
        return self.queries - self.succeeded

    @property
    def stalled(self) -> int:
        """Queries launched but not completed when the run ended — a stall
        is *always* a bug (a leak the deadline and drop accounting exist to
        prevent), so it gets its own column."""
        return self.started - self.queries

    @property
    def dropped(self) -> int:
        """Forwarding messages of the completed queries that were lost: the
        executors charge every loss to the query that sent it."""
        return sum(record.result.resilience.drops for record in self.completed)

    @property
    def resilience(self) -> ResilienceStats:
        """The completed queries' failure/recovery ledgers, merged."""
        aggregate = ResilienceStats()
        for record in self.completed:
            aggregate.merge(record.result.resilience)
        return aggregate

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

    def format(self, clock: str = "sim") -> str:
        """Human-readable one-paragraph summary.

        ``clock`` names the time base the run was measured on: ``"sim"``
        (simulated units, the engine's default, with the event count) or
        ``"wall"`` (wall-clock seconds, the live runtime).
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
            f"makespan          : {self.makespan:{pct_fmt}} {unit}",
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
