"""Aggregation, table and figure emitters for the experiment harness."""

from repro.analysis.figures import ascii_chart, records_to_series, series_to_csv
from repro.analysis.stats import AggregateRow, aggregate_measurements
from repro.analysis.store import ResultStore, canonical_line
from repro.analysis.tables import format_records, format_table

__all__ = [
    "AggregateRow",
    "aggregate_measurements",
    "format_records",
    "format_table",
    "ascii_chart",
    "records_to_series",
    "series_to_csv",
    "ResultStore",
    "canonical_line",
]
