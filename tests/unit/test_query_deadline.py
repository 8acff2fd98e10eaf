"""One deadline, three drivers, same ledger.

The executor owns a query's bound (``start(..., deadline=d)``); the drivers
above it — a direct call, :class:`SimSession`, :class:`QueryEngine` — only
say what ``d`` is.  The same stalled query must therefore end the same way
through each of them, and a query that completes in time must leave no
timer behind.  (The live leg is ``tests/integration/test_runtime_shutdown.py``.)
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.api.requests import RangeQuery, RequestOptions
from repro.api.sim import SimSession
from repro.core.armada import ArmadaSystem
from repro.core.errors import QueryError
from repro.core.mira import MiraExecutor
from repro.core.pira import PiraExecutor, RangeQueryResult
from repro.engine import QueryEngine, QueryJob
from repro.faults import ResiliencePolicy
from repro.sim.rng import DeterministicRNG
from repro.workloads.values import uniform_values

LOW, HIGH = 100.0, 300.0
DEADLINE = 8.0  # past the last hop (6), well before the per-hop timeout


def build_system() -> ArmadaSystem:
    system = ArmadaSystem(num_peers=150, seed=88, attribute_interval=(0.0, 1000.0))
    system.insert_many(uniform_values(DeterministicRNG(88).substream("values"), 800, 0.0, 1000.0))
    return system


ORIGIN = build_system().network.peer_ids()[0]


def via_start(system: ArmadaSystem, deadline: float) -> RangeQueryResult:
    result = system.pira.start(ORIGIN, [(LOW, HIGH)], deadline=deadline)
    system.overlay.run()
    return result


def via_session(system: ArmadaSystem, deadline: float) -> RangeQueryResult:
    request = RangeQuery(low=LOW, high=HIGH, options=RequestOptions(origin=ORIGIN))
    reply = asyncio.run(SimSession(system, deadline=deadline).submit(request))
    assert reply.status == reply.result.status
    return reply.result


def via_engine(system: ArmadaSystem, deadline: float) -> RangeQueryResult:
    job = QueryJob(arrival=0.0, origin=ORIGIN, low=LOW, high=HIGH)
    report = QueryEngine(system, deadline=deadline).run_open_loop([job])
    (record,) = report.completed
    assert record.status == record.result.status
    return record.result


DRIVERS = pytest.mark.parametrize("drive", [via_start, via_session, via_engine])


@pytest.fixture(scope="module")
def reference() -> RangeQueryResult:
    return build_system().range_query(LOW, HIGH, origin=ORIGIN)


@DRIVERS
def test_stalled_query_ends_at_its_deadline_with_the_same_ledger(drive, reference):
    """The last-hop receiver is crashed and the per-hop timeout outlasts the
    deadline: only the deadline can end the query."""
    victim = max(reference.forwarding_steps, key=lambda step: step[2])[1]
    system = build_system()
    system.set_resilience(ResiliencePolicy(per_hop_timeout=10 * DEADLINE, max_retries=0))
    system.overlay.set_drop_filter(lambda message: message.receiver == victim)

    result = drive(system, DEADLINE)

    assert result.status == "deadline"
    assert result.resilience.deadline_expired and result.failed and not result.complete
    # Partial results are kept: everything but the victim's subtree reported.
    survivors = {peer: hop for peer, hop in reference.destinations.items() if peer != victim}
    assert result.destinations == survivors
    assert result.matches and len(result.matches) <= len(reference.matches)
    assert not system.pira.is_active(result.query_id)
    # No timer left armed: the clock stops at the deadline, not at the
    # per-hop timeout the cancelled send was still waiting on.
    assert system.overlay.simulator.now == DEADLINE
    assert system.overlay.simulator.pending_events == 0


@DRIVERS
def test_completed_query_cancels_its_deadline_timer(drive, reference):
    system = build_system()
    result = drive(system, 500.0)
    assert result.status == "ok"
    assert result.to_wire() == reference.to_wire()
    # Cancelled, not run out: the drain ends with the query's last delivery.
    assert system.overlay.simulator.now == result.delay_hops
    assert system.overlay.simulator.pending_events == 0


def test_pira_and_mira_take_the_same_call():
    assert inspect.signature(PiraExecutor.start) == inspect.signature(MiraExecutor.start)


def test_pira_accepts_exactly_one_range():
    system = build_system()
    for ranges in ([], [(LOW, HIGH), (LOW, HIGH)]):
        with pytest.raises(QueryError):
            system.pira.start(ORIGIN, ranges)
    assert system.pira.active_queries == 0
