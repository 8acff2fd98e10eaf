"""Plain-text table rendering for experiment output.

Two entry points: :func:`format_table` renders explicit header/row data
(the experiment results and the figure projections build these), and
:func:`format_records` renders flat record dictionaries — the form the
sweep orchestrator produces and the JSONL result store
(:mod:`repro.analysis.store`) reads back, so persisted sweeps can be
re-rendered without re-running any simulation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned ASCII table.

    Numbers are formatted with two decimals; everything else with ``str``.
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered_rows.append([_render_cell(cell) for cell in row])
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(str(header).ljust(width) for header, width in zip(headers, widths)))
    lines.append(separator)
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_records(
    records: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render flat record dictionaries (sweep/store rows) as an ASCII table.

    ``columns`` selects and orders the rendered fields; when omitted, the
    union of all keys is rendered in first-appearance order.  Missing fields
    render as ``-`` so heterogeneous record batches remain readable.
    """
    if columns is None:
        seen: List[str] = []
        for record in records:
            for key in record:
                if key not in seen:
                    seen.append(key)
        columns = seen
    rows = [[record.get(column, "-") for column in columns] for record in records]
    return format_table(list(columns), rows, title=title)


def _render_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
