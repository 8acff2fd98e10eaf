"""``repro trace``: run one traced range query and print its span tree.

The tracing plane's smoke test and debugging lens in one command.  Two
backends behind the same flags:

- **sim** (default): build a seeded :class:`~repro.core.armada.ArmadaSystem`,
  publish a uniform object population, and run the query through a
  :class:`~repro.api.sim.SimSession` with a tracer attached.  Span
  durations are in simulated hop units; no deadline (it cannot hang).
- **live** (``--connect HOST:PORT``): send the traced request through a
  :class:`~repro.api.live.LiveSession`; the gateway's tracer collects the
  spans server-side and the reply ships them back.  Durations are
  wall-clock seconds.

Either way the output is :func:`~repro.obs.spans.format_span_tree` — the
root query span with its hop / retry / detour children indented beneath —
plus optional Chrome ``trace_event`` (``--trace-out``, Perfetto-loadable)
and JSONL (``--trace-jsonl``) exports.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.api.requests import RangeQuery, RequestOptions
from repro.obs.spans import (
    QueryTrace,
    format_span_tree,
    spans_to_chrome,
    spans_to_jsonl,
    trace_from_wire,
)


@dataclass(frozen=True)
class TraceSpec:
    """Parameters of one traced query (validated on construction)."""

    #: lower bound of the traced range query
    low: float = 400.0
    #: upper bound of the traced range query
    high: float = 420.0
    #: ``HOST:PORT`` of a live gateway; ``None`` runs the simulator
    connect: Optional[str] = None
    #: origin PeerID (``None`` draws a seeded random peer)
    origin: Optional[str] = None
    #: network size
    peers: int = 64
    #: seed of the overlay and the published values
    seed: int = 42
    #: number of objects published before the query
    objects: int = 500
    #: per-query deadline, wall-clock seconds; bounds the ``connect`` leg only
    deadline: float = 5.0
    attribute_interval: Tuple[float, float] = (0.0, 1000.0)
    #: write Chrome ``trace_event`` JSON here (Perfetto-loadable)
    trace_out: Optional[str] = None
    #: write one span per line here (grep-friendly)
    trace_jsonl: Optional[str] = None

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise ValueError("range must have positive width (low < high)")
        if self.peers < 3:
            raise ValueError("need at least 3 peers")
        if self.objects < 0:
            raise ValueError("objects must be non-negative")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.connect is not None:
            host, _, port = self.connect.rpartition(":")
            if not host or not port.isdigit():
                raise ValueError("connect must look like HOST:PORT")

    @property
    def address(self) -> Tuple[str, int]:
        host, _, port = self.connect.rpartition(":")
        return host, int(port)


@dataclass
class TraceResult:
    """Outcome of one traced query."""

    spec: TraceSpec
    backend: str
    status: str
    latency: float
    matches: int
    hops: int
    trace: QueryTrace
    notes: Tuple[str, ...] = ()

    def format(self) -> str:
        clock = "s" if self.backend == "live" else " hops"
        lines = [
            f"Traced range query [{self.spec.low:g}, {self.spec.high:g}] "
            f"({self.backend})",
            f"status  : {self.status}, {self.matches} matches over "
            f"{self.hops} hops in {self.latency:.3f}{clock}",
        ]
        lines.append(f"trace   : {self.trace.trace_id} ({len(self.trace)} spans)")
        lines.append("")
        lines.append(format_span_tree(self.trace, clock_unit=clock.strip() or "s"))
        lines.extend(self.notes)
        return "\n".join(lines)


def _export(trace: QueryTrace, spec: TraceSpec) -> list:
    """Write the requested trace artifacts; returns summary lines.  Their
    directories exist: ``cli.main`` makes (or refuses) each before the run."""
    notes = []
    if spec.trace_out is not None:
        payload = spans_to_chrome([trace])
        with open(spec.trace_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        notes.append(f"wrote {spec.trace_out} ({len(payload['traceEvents'])} events)")
    if spec.trace_jsonl is not None:
        with open(spec.trace_jsonl, "w", encoding="utf-8") as handle:
            handle.write(spans_to_jsonl(trace.spans) + "\n")
        notes.append(f"wrote {spec.trace_jsonl} ({len(trace)} spans)")
    return notes


async def _run_sim(spec: TraceSpec) -> TraceResult:
    from repro.api.sim import SimSession
    from repro.core.armada import ArmadaSystem
    from repro.sim.rng import DeterministicRNG
    from repro.workloads.values import uniform_values

    low, high = spec.attribute_interval
    system = ArmadaSystem(
        num_peers=spec.peers, seed=spec.seed, attribute_interval=spec.attribute_interval
    )
    rng = DeterministicRNG(spec.seed)
    for value in uniform_values(rng.substream("trace-values"), spec.objects, low, high):
        system.insert(value, payload=float(value))
    session = SimSession(system)
    options = RequestOptions(origin=spec.origin, trace=True)
    reply = await session.submit(
        RangeQuery(low=spec.low, high=spec.high, options=options)
    )
    return _to_result(spec, "sim", reply)


async def _run_live(spec: TraceSpec) -> TraceResult:
    from repro.api.live import LiveSession

    host, port = spec.address
    session = await LiveSession.connect(host, port, pool=1)
    try:
        options = RequestOptions(
            origin=spec.origin, deadline=spec.deadline, trace=True
        )
        reply = await session.submit(
            RangeQuery(low=spec.low, high=spec.high, options=options)
        )
    finally:
        await session.close()
    return _to_result(spec, "live", reply)


def _to_result(spec: TraceSpec, backend: str, reply: Any) -> TraceResult:
    result = reply.result
    return TraceResult(
        spec=spec,
        backend=backend,
        status=reply.status,
        latency=reply.latency,
        matches=len(result.matches) if result is not None else 0,
        hops=result.delay_hops if result is not None else 0,
        trace=trace_from_wire(reply.trace),
    )


async def run_async(spec: TraceSpec) -> TraceResult:
    """Run one traced query against the sim or a live gateway."""
    if spec.connect is not None:
        return await _run_live(spec)
    return await _run_sim(spec)


def run(spec: Optional[TraceSpec] = None) -> TraceResult:
    """Blocking wrapper; also writes the requested export files."""
    resolved = spec if spec is not None else TraceSpec()
    result = asyncio.run(run_async(resolved))
    result.notes = tuple(_export(result.trace, resolved))
    return result
