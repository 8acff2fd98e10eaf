"""Load experiment: throughput and latency percentiles vs offered load.

This is the experiment the concurrent query engine exists for.  A
Zipf-skewed single-attribute range workload arrives as an open-loop Poisson
process at each offered rate; every forwarding message of every in-flight
Armada/PIRA query is simulated on one clock, optionally with churn events
interleaved.  For contrast the same workload is also measured query by
query on the DCF-CAN baseline and summarised at flow level by
:func:`flow_row` (no queueing, one time unit per hop).

Reported per rate: completed queries, throughput (queries per simulated
time unit), mean/p50/p95/p99 sojourn latency, p95 hop delay, messages and
simulator events.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.figures import ascii_chart, series_to_csv
from repro.analysis.tables import format_table
from repro.api.sim import SimSession
from repro.engine import QueryJob
from repro.experiments.common import ExperimentConfig, build_and_load, make_values
from repro.rangequery.armada_scheme import ArmadaScheme
from repro.rangequery.base import QueryMeasurement
from repro.rangequery.dcf_can import DcfCanScheme
from repro.sim.metrics import SummaryStats, safe_ratio
from repro.sim.rng import DeterministicRNG
from repro.workloads.arrivals import (
    ChurnEvent,
    periodic_churn,
    poisson_arrival_times,
    zipf_range_queries,
)

#: offered rates swept by default (queries per simulated time unit)
DEFAULT_RATES: Tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass
class LoadSweepResult:
    """All per-rate rows of the load sweep."""

    peers: int = 0
    queries_per_rate: int = 0
    churn: bool = False
    log_n: float = 0.0
    rates: List[float] = field(default_factory=list)
    armada_rows: List[Dict[str, float]] = field(default_factory=list)
    baseline_rows: List[Dict[str, float]] = field(default_factory=list)

    def throughput_series(self) -> Dict[str, List[float]]:
        """Throughput vs offered rate, per scheme."""
        series = {"Armada": [row["throughput"] for row in self.armada_rows]}
        if self.baseline_rows:
            series["DCF-CAN"] = [row["throughput"] for row in self.baseline_rows]
        return series

    def latency_series(self) -> Dict[str, List[float]]:
        """p95 sojourn latency vs offered rate, per scheme."""
        series = {"Armada p95": [row["latency_p95"] for row in self.armada_rows]}
        if self.baseline_rows:
            series["DCF-CAN p95"] = [row["latency_p95"] for row in self.baseline_rows]
        return series

    def to_csv(self) -> Dict[str, str]:
        """CSV series (one file: throughput and latency percentiles per rate)."""
        columns: Dict[str, List[float]] = {}
        for prefix, rows in (("armada", self.armada_rows), ("dcf", self.baseline_rows)):
            if not rows:
                continue
            for key in ("throughput", "latency_p50", "latency_p95", "latency_p99", "delay_p95"):
                columns[f"{prefix}_{key}"] = [row[key] for row in rows]
        return {"load": series_to_csv("offered_rate", self.rates, columns)}

    def format(self) -> str:
        """Table plus ASCII charts for the terminal."""
        headers = [
            "rate",
            "completed",
            "throughput",
            "lat mean",
            "lat p50",
            "lat p95",
            "lat p99",
            "delay p95",
            "messages",
        ]
        rows = []
        for index, rate in enumerate(self.rates):
            row = self.armada_rows[index]
            rows.append(
                [
                    rate,
                    row["queries"],
                    row["throughput"],
                    row["mean_latency"],
                    row["latency_p50"],
                    row["latency_p95"],
                    row["latency_p99"],
                    row["delay_p95"],
                    row["messages"],
                ]
            )
        churn_note = " with churn" if self.churn else ""
        parts = [
            format_table(
                headers,
                rows,
                title=(
                    f"Concurrent load sweep{churn_note}: Armada/PIRA, N = {self.peers}, "
                    f"{self.queries_per_rate} queries per rate (logN = {self.log_n:.1f})"
                ),
            ),
            ascii_chart(self.rates, self.throughput_series(), title="Throughput vs offered load"),
            ascii_chart(self.rates, self.latency_series(), title="p95 latency vs offered load"),
        ]
        return "\n\n".join(parts)


def flow_row(
    measurements: Sequence[QueryMeasurement], arrivals: Sequence[float]
) -> Dict[str, float]:
    """One rate's row for a scheme measured query by query, at flow level.

    Each query holds the timeline from its arrival for one time unit per
    hop, with no queueing: its latency is its hop delay, and the span runs
    from the first arrival to the latest ``arrival + delay``.
    """
    delays = SummaryStats("delay")
    delays.extend(m.delay_hops for m in measurements)
    last = max(
        (arrival + m.delay_hops for arrival, m in zip(arrivals, measurements)), default=0.0
    )
    span = max(0.0, last - min(arrivals, default=0.0))
    row = {
        "queries": float(delays.count),
        "throughput": safe_ratio(float(delays.count), span),
        "mean_latency": delays.mean,
        "messages": float(sum(m.messages for m in measurements)),
    }
    for key, value in delays.percentiles().items():
        row[f"latency_{key}"] = value
        row[f"delay_{key}"] = value
    return row


def run(
    config: ExperimentConfig,
    rates: Optional[Tuple[float, ...]] = None,
    churn: bool = False,
    baseline: bool = True,
) -> LoadSweepResult:
    """Run the concurrent load sweep.

    One Armada system is built and reused across rates (the simulator clock
    keeps advancing); each rate submits a fresh open-loop Poisson batch of
    ``config.queries_per_point`` Zipf-positioned range queries through a new
    :class:`QueryEngine`.  With ``churn=True``, balanced join/leave events
    fire throughout each batch's arrival window.
    """
    rates = tuple(rates) if rates is not None else DEFAULT_RATES
    values = make_values(config)
    space = config.space

    armada = build_and_load(
        lambda: ArmadaScheme(space=space, object_id_length=config.object_id_length),
        config,
        config.peers,
        values,
    )
    assert isinstance(armada, ArmadaScheme) and armada.system is not None
    system = armada.system

    dcf = None
    if baseline:
        dcf = build_and_load(lambda: DcfCanScheme(space=space), config, config.peers, values)

    result = LoadSweepResult(
        peers=config.peers,
        queries_per_rate=config.queries_per_point,
        churn=churn,
        log_n=armada.log_size(),
    )
    base_rng = DeterministicRNG(config.seed)
    # The sweep goes through the same Session surface the live load
    # generator uses — one driver vocabulary for both backends.  One
    # session, one event loop for the whole sweep (the sim binding has no
    # real awaits; the loop exists only to satisfy the async contract).
    session = SimSession(system)

    async def sweep() -> None:
        for rate in rates:
            count = config.queries_per_point
            queries = zipf_range_queries(
                base_rng.substream("load-ranges", rate),
                count,
                config.fixed_range_size,
                low=config.attribute_low,
                high=config.attribute_high,
            )
            gaps = poisson_arrival_times(
                base_rng.substream("load-arrivals", rate), rate, count
            )
            origin_rng = base_rng.substream("load-origins", rate)
            origins = [system.network.random_peer(origin_rng).peer_id for _ in range(count)]

            now = system.overlay.simulator.now
            jobs = [
                QueryJob(arrival=now + gaps[index], origin=origins[index], low=low, high=high)
                for index, (low, high) in enumerate(queries)
            ]
            schedule = None
            if churn:
                window = max(gaps) if gaps else 1.0
                schedule = [
                    ChurnEvent(time=now + event.time, kind=event.kind, count=event.count)
                    for event in periodic_churn(
                        period=max(window / 10.0, 1.0),
                        until=window,
                        joins=max(1, config.peers // 200),
                        leaves=max(1, config.peers // 200),
                        start=0.0,
                    )
                ]
            report = await session.run_jobs(jobs, mode="open", churn=schedule)
            row = report.as_dict()
            row["rate"] = rate
            result.rates.append(float(rate))
            result.armada_rows.append(row)

            if dcf is not None:
                measured = [dcf.query(low, high) for low, high in queries]
                result.baseline_rows.append(flow_row(measured, gaps))

    asyncio.run(sweep())
    return result
