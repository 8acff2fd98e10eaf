"""The measurement protocol shared by all workloads.

One run = set-up (several times, median reported) → one discarded
warm-up round → for ``--seconds``, a loaded round (``in_flight`` requests
outstanding) and an unloaded round (1 in flight) in turn, so both kinds
sample the machine over the whole run.  Set-ups and rounds alike have
reference-kernel readings interleaved; all timings are speed-corrected
(see :mod:`bench.refkernel`).  ``gc.collect()`` runs between rounds,
outside the timed region; the collector is otherwise untouched.

Count metrics and peak RSS are read at a fixed op count — the first
``COUNT_ROUNDS`` rounds of each kind, which every run completes however
slow the machine — so they are exact for a given seed; the timed rounds
beyond that only add samples.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.requests import ApiError, Get, Insert, MultiInsert, Request
from repro.runtime.protocol import ProtocolError
from repro.sim.rng import DeterministicRNG

from bench import refkernel
from bench.oracle import Observed, Oracle, observe
from bench.refkernel import Round, median, percentile, pooled_latencies_ms
from bench.systems import System
from bench.trace import LayerTotals, Tracer, heartbeat
from bench.workloads import Workload, corpus_requests, round_requests

#: rounds of each kind every run completes (counts and RSS are read after them)
COUNT_ROUNDS = 8
#: unloaded round r draws its requests from seed + this + r
UNLOADED_FIRST_INDEX = 1000
AUDIT_GETS = 500
#: share of ``--seconds`` spent inside rounds at nominal speed; the rest
#: goes to the reference readings, ``gc.collect()``, generating and
#: checking
ROUND_SHARE = 0.70

_REQUEST_FAILURES = (ApiError, ProtocolError, ConnectionError, asyncio.TimeoutError)


@dataclass
class Tally:
    """What the replies of some rounds added up to."""

    ops: int = 0
    failed: int = 0
    messages: int = 0
    hops: int = 0
    hops_max: int = 0
    destinations: int = 0
    matches: int = 0
    first_mismatch: Optional[str] = None

    def add(self, other: "Tally") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.messages += other.messages
        self.hops += other.hops
        self.hops_max = max(self.hops_max, other.hops_max)
        self.destinations += other.destinations
        self.matches += other.matches
        if self.first_mismatch is None:
            self.first_mismatch = other.first_mismatch

    @property
    def ok(self) -> int:
        return self.ops - self.failed


@dataclass
class TracedRound:
    """One traced round's aggregates, still in wall-clock seconds."""

    timing: Round
    totals: LayerTotals
    counters: Dict[str, int]
    lags_s: List[float]


@dataclass
class Outcome:
    """What one run reports."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    first_mismatch: Optional[str]
    #: the uncorrected view of an end-to-end run (printed, not gated)
    machine: Optional[Dict[str, float]] = None


async def drive(
    system: System,
    requests: Sequence[Request],
    in_flight: int,
    meter: refkernel.Meter,
    tracer: Optional[Tracer] = None,
    lags_s: Optional[List[float]] = None,
) -> Tuple[Round, List[Observed]]:
    """Closed loop: ``in_flight`` workers issue ``requests`` back to back.

    Everything is timed on the meter's program clock; whichever worker
    finishes a request after a reading fell due takes it, right there on
    the event loop.  Returns the round and what was observed of each reply
    (the replies themselves are dropped at once, see ``Observed``).
    """
    count = len(requests)
    replies: List[Optional[Observed]] = [None] * count
    latencies = [0.0] * count
    ends = [0.0] * count
    cursor = iter(range(count))
    now = meter.now
    submit = system.session.submit

    async def worker() -> None:
        for index in cursor:
            started = now()
            try:
                reply: Any = await submit(requests[index])
            except _REQUEST_FAILURES as exc:
                reply = exc
            ended = now()
            replies[index] = observe(reply)
            latencies[index] = ended - started
            ends[index] = ended
            if ended >= meter.next_due:
                meter.read()

    probe = None
    if lags_s is not None:
        probe = asyncio.get_running_loop().create_task(heartbeat(lags_s, now))
    first = meter.start()
    if tracer is not None:
        tracer.enabled = True
    try:
        await asyncio.gather(*(worker() for _ in range(in_flight)))
    finally:
        if tracer is not None:
            tracer.enabled = False
        timing = meter.stop(first, count)
        if probe is not None:
            probe.cancel()
            await asyncio.gather(probe, return_exceptions=True)
    timing.latencies_s = latencies
    timing.ends_s = ends
    return timing, replies


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One system under test plus the readings and tallies around it."""

    def __init__(self, spec: Workload, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.spec = spec
        self.seed = seed
        self.tracer = tracer
        self.oracle = Oracle()
        self.corpus = corpus_requests(spec, seed)
        for request in self.corpus:
            self.oracle.published(request)
        self.meter = refkernel.Meter()
        self.system: Optional[System] = None
        self.total = Tally()
        self.traced: List[TracedRound] = []
        #: speed-corrected seconds the last boot spent in FissioneNetwork.build
        self.build_s = 0.0
        #: ru_maxrss once the first ``COUNT_ROUNDS`` rounds of each kind are done
        self.rss_at_count_mb = 0.0

    async def boot(self) -> float:
        """Boot + publish once; returns the speed-corrected seconds."""
        await self.close()
        gc.collect()
        first = self.meter.start()
        try:
            self.system = await System.boot(self.spec, self.corpus, self.meter.read)
        finally:
            region = self.meter.stop(first)
        # the build is the region's first slice: a reading follows it at once
        self.build_s = self.system.build_wall_s * region.factors[0]
        return region.corrected_s

    async def close(self) -> None:
        if self.system is not None:
            await self.system.close()
            self.system = None

    async def round(self, index: int, count: int, in_flight: int, trace: bool = False) -> Tuple[Round, Tally]:
        """Run round ``index`` (requests from ``seed + index``) and check it."""
        assert self.system is not None
        requests = round_requests(self.spec, self.seed, index, count, self.system.peer_ids())
        tracer = self.tracer if trace else None
        lags_s: Optional[List[float]] = [] if tracer and self.spec.backend == "live" else None
        gc.collect()
        timing, replies = await drive(
            self.system, requests, in_flight, self.meter, tracer, lags_s
        )
        if tracer is not None:
            self.traced.append(
                TracedRound(timing, tracer.stack.take(), tracer.take_counters(), lags_s or [])
            )
        tally = self.check(requests, replies)
        self.total.add(tally)
        return timing, tally

    async def phase(
        self, seconds: float, trace: bool = False, unloaded: bool = False
    ) -> Tuple[List[Round], List[Round], List[Tally]]:
        """Loaded rounds for ``seconds``, never fewer than ``COUNT_ROUNDS``;
        with ``unloaded``, each is followed by an unloaded round (when the
        workload has them).  Returns the loaded rounds, the unloaded rounds
        and the loaded rounds' tallies.

        The phase ends when the rounds' speed-corrected time adds up to
        ``ROUND_SHARE`` of ``seconds``: budgeting corrected rather than wall
        time keeps the number of rounds — and so the state the program
        has reached (memo fill, heap size) — the same whatever the
        machine's speed.  ``seconds`` of wall time is the hard stop, so a
        machine running far below nominal speed cannot stretch the run.
        """
        spec = self.spec
        loaded: List[Round] = []
        idle: List[Round] = []
        tallies: List[Tally] = []
        budget_s = seconds * ROUND_SHARE
        deadline = time.perf_counter() + seconds
        spent_s = 0.0
        while len(loaded) < COUNT_ROUNDS or (
            spent_s < budget_s and time.perf_counter() < deadline
        ):
            index = 1 + len(loaded)
            timing, tally = await self.round(index, spec.ops_per_round, spec.in_flight, trace)
            loaded.append(timing)
            tallies.append(tally)
            spent_s += timing.corrected_s
            if unloaded and spec.unloaded_ops_per_round:
                timing, _ = await self.round(
                    UNLOADED_FIRST_INDEX + index, spec.unloaded_ops_per_round, 1
                )
                idle.append(timing)
                spent_s += timing.corrected_s
            if len(loaded) == COUNT_ROUNDS:
                self.rss_at_count_mb = peak_rss_mb()
        return loaded, idle, tallies

    def check(self, requests: Sequence[Request], replies: Sequence[Observed]) -> Tally:
        """Compare every reply with the oracle and add up the paper's costs."""
        tally = Tally(ops=len(requests))
        for request, observed in zip(requests, replies):
            problem = self.oracle.mismatch(request, observed)
            if problem is not None:
                tally.failed += 1
                if tally.first_mismatch is None:
                    tally.first_mismatch = f"{request.to_wire()}: {problem}"
                continue
            tally.messages += observed.messages
            tally.hops += observed.hops
            tally.hops_max = max(tally.hops_max, observed.hops)
            tally.destinations += observed.destinations
            if isinstance(request, (Insert, MultiInsert)):
                self.oracle.published(request)
            elif not isinstance(request, Get):
                tally.matches += len(observed.values)
        return tally

    async def audit(self) -> None:
        """Closing audit: the store holds exactly what was acknowledged,
        and (write workloads) seeded ``Get``s find what was inserted."""
        assert self.system is not None
        tally = Tally(ops=1)
        stats = await self.system.session.stats()
        if stats.get("objects") != self.oracle.count:
            tally.failed = 1
            tally.first_mismatch = (
                f"stats reports {stats.get('objects')} objects, "
                f"{self.oracle.count} were acknowledged"
            )
        self.total.add(tally)
        if self.spec.writes:
            rng = DeterministicRNG(self.seed).substream("bench-audit")
            gets = [Get(value=value) for value in self.oracle.sample_singles(rng, AUDIT_GETS)]
            _, replies = await drive(self.system, gets, self.spec.in_flight, self.meter)
            self.total.add(self.check(gets, replies))


def count_metrics(tallies: Sequence[Tally]) -> Dict[str, float]:
    counts = Tally()
    for tally in tallies[:COUNT_ROUNDS]:
        counts.add(tally)
    ok = max(counts.ok, 1)
    return {
        "msgs_per_op": counts.messages / ok,
        "delay_hops_mean": counts.hops / ok,
        "delay_hops_max": float(counts.hops_max),
    }


async def run_untraced(spec: Workload, seed: int, seconds: float) -> Outcome:
    """The end-to-end run (``--trace 0``)."""
    bench = Bench(spec, seed)
    try:
        setups = [await bench.boot() for _ in range(spec.setups)]
        await bench.round(0, spec.ops_per_round, spec.in_flight)
        loaded, unloaded, tallies = await bench.phase(seconds, unloaded=True)
        await bench.audit()
    finally:
        await bench.close()
    latencies = pooled_latencies_ms(loaded)
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": refkernel.ops_per_s(loaded),
        "lat_p50_ms": percentile(latencies, 50),
        # sim-scale is always 1 in flight: its loaded rounds are the unloaded ones
        "unloaded_lat_p50_ms": percentile(pooled_latencies_ms(unloaded or loaded), 50),
        **count_metrics(tallies),
        "ok_share": bench.total.ok / bench.total.ops,
        "peak_rss_mb": bench.rss_at_count_mb,
    }
    return Outcome(
        metrics,
        bench.total.ops,
        bench.total.failed,
        bench.total.first_mismatch,
        machine=refkernel.machine_metrics(loaded),
    )
