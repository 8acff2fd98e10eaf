"""The load driver: overlapping in-flight queries on a clock it is handed.

See :mod:`repro.engine.query_engine` for the full story; the short version
is that :class:`LoadDriver` runs time-stamped :class:`QueryJob` batches
open- or closed-loop and records each query once, for both clocks.
:class:`QueryEngine` is that driver on the simulator (optionally under
churn), over an :class:`~repro.core.armada.ArmadaSystem` whose PIRA/MIRA
executors resume per message; :func:`repro.runtime.loadgen.run_jobs` is the
same driver on asyncio.  Both report throughput plus latency/delay
percentiles through :func:`build_report`.
"""

from repro.engine.query_engine import LoadDriver, QueryEngine, offered_load
from repro.engine.reporting import (
    CompletedQuery,
    CompletenessScore,
    EngineReport,
    QueryJob,
    build_report,
    score_completeness,
)

__all__ = [
    "CompletedQuery",
    "CompletenessScore",
    "EngineReport",
    "LoadDriver",
    "QueryEngine",
    "QueryJob",
    "build_report",
    "offered_load",
    "score_completeness",
]
