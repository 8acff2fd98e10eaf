"""The load driver: overlapping in-flight queries on a clock it is handed.

See :mod:`repro.engine.query_engine` for the full story; the short version
is that :class:`LoadDriver` runs time-stamped :class:`QueryJob` batches
open- or closed-loop and records each query once, for both clocks.
:class:`QueryEngine` is that driver on the simulator (optionally under
churn), over an :class:`~repro.core.armada.ArmadaSystem` whose PIRA/MIRA
executors resume per message; :func:`repro.runtime.loadgen.run_jobs` is the
same driver on asyncio.  Both hand back an :class:`EngineReport`, whose
throughput and latency/delay percentiles are computed from the run's
:class:`CompletedQuery` records.
"""

from repro.engine.query_engine import LoadDriver, QueryEngine, offered_load
from repro.engine.reporting import (
    CompletedQuery,
    CompletenessScore,
    EngineReport,
    QueryJob,
    score_completeness,
)

__all__ = [
    "CompletedQuery",
    "CompletenessScore",
    "EngineReport",
    "LoadDriver",
    "QueryEngine",
    "QueryJob",
    "offered_load",
    "score_completeness",
]
