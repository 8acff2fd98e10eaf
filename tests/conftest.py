"""Shared fixtures for the test suite.

Expensive structures (built networks, loaded systems) use session scope so
the several hundred tests stay fast; tests that mutate topology build their
own instances instead of using these fixtures.
"""

from __future__ import annotations

import pytest

from repro.core.armada import ArmadaSystem
from repro.faults import FaultInjector
from repro.faults.models import FaultModel
from repro.fissione.network import FissioneNetwork
from repro.sim.network import NO_FAULT, FaultDecision
from repro.sim.rng import DeterministicRNG


@pytest.fixture()
def rng() -> DeterministicRNG:
    """A fresh deterministic RNG for each test."""
    return DeterministicRNG(12345)


@pytest.fixture(scope="session")
def small_network() -> FissioneNetwork:
    """A 64-peer FISSIONE network (read-only in tests)."""
    return FissioneNetwork.build(64, DeterministicRNG(7).substream("topology"), object_id_length=24)


@pytest.fixture(scope="session")
def medium_network() -> FissioneNetwork:
    """A 400-peer FISSIONE network (read-only in tests)."""
    return FissioneNetwork.build(400, DeterministicRNG(17).substream("topology"), object_id_length=32)


@pytest.fixture(scope="session")
def loaded_system() -> ArmadaSystem:
    """A 200-peer Armada system pre-loaded with a regular grid of values."""
    system = ArmadaSystem(num_peers=200, seed=3, attribute_interval=(0.0, 1000.0))
    system.insert_many([float(value) for value in range(0, 1000, 5)])
    return system


@pytest.fixture(scope="session")
def multi_system() -> ArmadaSystem:
    """A 150-peer Armada system configured for 2-attribute objects and loaded."""
    system = ArmadaSystem(
        num_peers=150,
        seed=9,
        attribute_interval=(0.0, 100.0),
        attribute_intervals=((0.0, 100.0), (0.0, 100.0)),
    )
    rng = DeterministicRNG(9).substream("multi-values")
    records = [
        (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(600)
    ]
    for record in records:
        system.insert_multi(record, payload=record)
    system.multi_records = records  # type: ignore[attr-defined]
    return system


class DropWhen(FaultModel):
    """Drops every message its predicate accepts (drop reason ``"drop"``)."""

    name = "drop"

    def __init__(self, predicate) -> None:
        self.predicate = predicate

    def on_send(self, message, injector) -> FaultDecision:
        return FaultDecision(drop=True, reason=self.name) if self.predicate(message) else NO_FAULT


@pytest.fixture()
def drop_when():
    """``drop_when(overlay, predicate)`` installs a fault injector that
    drops each message ``predicate(message)`` accepts (a predicate that
    returns False observes every send) and returns the injector; its
    ``uninstall()`` lifts the fault."""

    def install(overlay, predicate) -> FaultInjector:
        return FaultInjector(overlay, [DropWhen(predicate)]).install()

    return install
