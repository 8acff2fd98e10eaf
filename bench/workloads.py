"""The four workloads: their fixed shape and their seeded inputs.

Everything the program under test receives — the published corpus and
every request — is generated here from ``--seed``; the program sees only
requests.  Round ``r`` of a run draws its requests from ``seed + r``, so
two runs with the same seed replay the identical request list whatever
the machine's speed lets them finish.

Query bounds are continuous floats (``make_mixed_jobs`` draws a uniform
start inside a Zipf-chosen bucket), so no two requests share a range:
the ``lru_cache`` memos in ``core/single_hash`` and ``kautz/region``
see no repeats and cannot flatter the naming layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.api.requests import Insert, MultiInsert, Request, request_from_job
from repro.runtime.loadgen import make_mixed_jobs
from repro.sim.rng import DeterministicRNG
from repro.workloads.values import uniform_values

INTERVAL = (0.0, 1000.0)
#: the system under test is the same on every seed; only its inputs vary
TOPOLOGY_SEED = 7


@dataclass(frozen=True)
class Workload:
    """Fixed parameters of one workload (see ``bench/README.md``)."""

    name: str
    backend: str  # "live" | "sim"
    peers: int
    objects: int
    multi_objects: int
    ops_per_round: int
    unloaded_ops_per_round: int
    in_flight: int
    #: set-ups per run; ``setup_s`` is their median
    setups: int
    range_size: float = 0.0
    mira_fraction: float = 0.0
    writes: bool = False
    nodes: int = 8
    connections: int = 2


WORKLOADS = {
    spec.name: spec
    for spec in (
        Workload(
            name="live-narrow", backend="live", peers=32, objects=2000, multi_objects=500,
            range_size=20.0, ops_per_round=1000, unloaded_ops_per_round=600, in_flight=16, setups=7,
        ),
        Workload(
            name="live-wide", backend="live", peers=32, objects=2000, multi_objects=500,
            range_size=250.0, ops_per_round=250, unloaded_ops_per_round=150, in_flight=16, setups=7,
        ),
        Workload(
            name="live-write", backend="live", peers=32, objects=2000, multi_objects=500,
            writes=True, ops_per_round=4000, unloaded_ops_per_round=2000, in_flight=16, setups=7,
        ),
        Workload(
            name="sim-scale", backend="sim", peers=8192, objects=20000, multi_objects=5000,
            range_size=50.0, mira_fraction=0.25, ops_per_round=100,
            unloaded_ops_per_round=0, in_flight=1, setups=3, nodes=0, connections=0,
        ),
    )
}


def corpus_requests(spec: Workload, seed: int) -> List[Request]:
    """The set-up corpus: single-attribute then multi-attribute inserts."""
    rng = DeterministicRNG(seed)
    low, high = INTERVAL
    requests: List[Request] = [
        Insert(value=value)
        for value in uniform_values(rng.substream("bench-values"), spec.objects, low, high)
    ]
    mrng = rng.substream("bench-mvalues")
    requests.extend(
        MultiInsert(values=(mrng.uniform(low, high), mrng.uniform(low, high)))
        for _ in range(spec.multi_objects)
    )
    return requests


def round_requests(
    spec: Workload, seed: int, round_index: int, count: int, peer_ids: Sequence[str]
) -> List[Request]:
    """The ``count`` requests of round ``round_index`` (seed + index)."""
    round_seed = seed + round_index
    if spec.writes:
        rng = DeterministicRNG(round_seed).substream("bench-writes")
        low, high = INTERVAL
        requests: List[Request] = []
        for _ in range(count):
            if rng.random() < 0.25:
                requests.append(
                    MultiInsert(values=(rng.uniform(low, high), rng.uniform(low, high)))
                )
            else:
                requests.append(Insert(value=rng.uniform(low, high)))
        return requests
    jobs = make_mixed_jobs(
        seed=round_seed,
        count=count,
        peer_ids=peer_ids,
        interval=INTERVAL,
        range_size=spec.range_size,
        mira_fraction=spec.mira_fraction,
    )
    return [request_from_job(job) for job in jobs]
