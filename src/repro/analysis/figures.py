"""Figure emitters: CSV series and quick ASCII charts.

The paper's figures are line charts (metric vs range size / network size,
one series per scheme).  The experiment harness emits the underlying series
as CSV (for plotting elsewhere) and can render a rough ASCII chart for the
terminal, which is enough to read off the qualitative shape the reproduction
is checked against.  :class:`FigureGrid` is Figures 5-8 themselves: one
sweep's records projected onto the paper's tables, series and charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import AggregateRow
from repro.analysis.tables import format_table

#: the AggregateRow fields a sweep record carries under their own names
#: (its explicit axes replace ``x_value``)
_ROW_FIELDS = tuple(f.name for f in fields(AggregateRow) if f.name != "x_value")


@dataclass
class FigureGrid:
    """PIRA against DCF-CAN along one sweep axis: Figures 5/6 or 7/8.

    A projection of sweep records (:func:`repro.experiments.orchestrator.run_sweep`,
    one record per point, ``sweep_scheme`` ``armada`` or ``dcf-can``) onto
    the paper's delay, message and ratio figures.  What tells the two figure
    pairs apart is data: ``x_key`` is the record field on the x axis (and
    the CSV's first column), ``x_header`` its table column, ``title`` the
    table's title and ``figures`` the (CSV name, chart title) of the delay,
    message and ratio figures, in that order.
    """

    records: List[Dict[str, Any]]
    x_key: str
    x_header: str
    title: str
    figures: Tuple[Tuple[str, str], ...]
    pira_rows: List[AggregateRow] = field(init=False)
    dcf_rows: List[AggregateRow] = field(init=False)

    def __post_init__(self) -> None:
        self.pira_rows = self._rows("armada")
        self.dcf_rows = self._rows("dcf-can")

    def _rows(self, scheme: str) -> List[AggregateRow]:
        return [
            AggregateRow(x_value=record[self.x_key], **{name: record[name] for name in _ROW_FIELDS})
            for record in self.records
            if record["sweep_scheme"] == scheme
        ]

    @property
    def x_values(self) -> List[float]:
        """The swept axis, in grid order."""
        return [row.x_value for row in self.pira_rows]

    @property
    def log_n(self) -> float:
        """``log N`` of the largest network swept (Figures 5/6 sweep one)."""
        return max(row.log_n for row in self.pira_rows)

    def delay_series(self) -> Dict[str, List[float]]:
        """Series of Figure 5 / 7 (delay)."""
        return {
            "PIRA": [row.avg_delay for row in self.pira_rows],
            "DCF-CAN": [row.avg_delay for row in self.dcf_rows],
            "logN": [row.log_n for row in self.pira_rows],
        }

    def message_series(self) -> Dict[str, List[float]]:
        """Series of Figure 6(a) / 8(a) (messages, plus PIRA's Destpeers)."""
        return {
            "PIRA": [row.avg_messages for row in self.pira_rows],
            "DCF-CAN": [row.avg_messages for row in self.dcf_rows],
            "Destpeers": [row.avg_destinations for row in self.pira_rows],
        }

    def ratio_series(self) -> Dict[str, List[float]]:
        """Series of Figure 6(b) / 8(b) (PIRA's MesgRatio / IncreRatio)."""
        return {
            "MesgRatio": [row.mesg_ratio for row in self.pira_rows],
            "IncreRatio": [row.incre_ratio for row in self.pira_rows],
        }

    def _series(self) -> List[Dict[str, List[float]]]:
        return [self.delay_series(), self.message_series(), self.ratio_series()]

    def to_csv(self) -> Dict[str, str]:
        """CSV text for each figure, by its CSV name."""
        return {
            name: series_to_csv(self.x_key, self.x_values, series)
            for (name, _), series in zip(self.figures, self._series())
        }

    def format(self) -> str:
        """The table plus one ASCII chart per figure, for the terminal."""
        headers = [
            self.x_header, "PIRA delay", "DCF delay", "logN", "PIRA msgs",
            "DCF msgs", "Destpeers", "MesgRatio", "IncreRatio",
        ]  # fmt: skip
        rows = [
            [
                pira.x_value, pira.avg_delay, dcf.avg_delay, pira.log_n, pira.avg_messages,
                dcf.avg_messages, pira.avg_destinations, pira.mesg_ratio, pira.incre_ratio,
            ]  # fmt: skip
            for pira, dcf in zip(self.pira_rows, self.dcf_rows)
        ]
        parts = [format_table(headers, rows, title=self.title)]
        for (_, chart_title), series in zip(self.figures, self._series()):
            parts.append(ascii_chart(self.x_values, series, title=chart_title))
        return "\n\n".join(parts)


def series_to_csv(x_label: str, x_values: Sequence[float], series: Dict[str, Sequence[float]]) -> str:
    """CSV text with one column per series.

    Missing points — a series shorter than the x axis, or ``None`` gap
    markers from :func:`records_to_series` — render as empty cells.
    """
    names = list(series.keys())
    lines = [",".join([x_label] + names)]
    for index, x_value in enumerate(x_values):
        row = [f"{x_value:g}"]
        for name in names:
            values = series[name]
            value = values[index] if index < len(values) else None
            row.append(f"{value:.4f}" if value is not None else "")
        lines.append(",".join(row))
    return "\n".join(lines)


def records_to_series(
    records: Sequence[Dict[str, Any]],
    x_key: str,
    y_key: str,
    group_key: str = "sweep_scheme",
) -> Tuple[List[float], Dict[str, List[Optional[float]]]]:
    """Pivot flat sweep/store records into ``(x_values, series)`` form.

    One series per distinct ``group_key`` value; points are averaged when a
    group has several records at the same x (e.g. sweep replicas), and every
    series is aligned on the sorted union of x values.  A grid point a
    series never measured (schemes swept on different grids, or a partially
    completed sweep) stays ``None`` — an empty CSV cell and a skipped chart
    point — so no fabricated values enter figure data.  The returned pair
    plugs straight into :func:`series_to_csv` and :func:`ascii_chart`, so a
    persisted sweep can be re-plotted without re-running it.
    """
    groups: Dict[str, Dict[float, List[float]]] = {}
    x_union: List[float] = []
    for record in records:
        if x_key not in record or y_key not in record:
            continue
        group = str(record.get(group_key, "all"))
        x_value = float(record[x_key])
        groups.setdefault(group, {}).setdefault(x_value, []).append(float(record[y_key]))
        if x_value not in x_union:
            x_union.append(x_value)
    x_union.sort()
    series: Dict[str, List[Optional[float]]] = {}
    for group, points in groups.items():
        series[group] = [
            sum(points[x]) / len(points[x]) if x in points else None for x in x_union
        ]
    return x_union, series


def ascii_chart(
    x_values: Sequence[float],
    series: Dict[str, Sequence[float]],
    height: int = 12,
    width: int = 64,
    title: str = "",
) -> str:
    """A rough ASCII line chart (one marker character per series).

    ``None`` values (gap markers from :func:`records_to_series`) are
    simply not drawn.
    """
    markers = "*o+x#@%&"
    all_values: List[float] = [
        value for values in series.values() for value in values if value is not None
    ]
    if not all_values or not x_values:
        return title
    top = max(all_values)
    bottom = min(0.0, min(all_values))
    span = top - bottom or 1.0

    grid = [[" " for _ in range(width)] for _ in range(height)]
    x_min, x_max = min(x_values), max(x_values)
    x_span = (x_max - x_min) or 1.0
    for series_index, (name, values) in enumerate(series.items()):
        marker = markers[series_index % len(markers)]
        for x_value, y_value in zip(x_values, values):
            if y_value is None:
                continue
            column = int((x_value - x_min) / x_span * (width - 1))
            row = int((y_value - bottom) / span * (height - 1))
            grid[height - 1 - row][column] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{top:10.1f} ┐")
    for row in grid:
        lines.append("           │" + "".join(row))
    lines.append(f"{bottom:10.1f} └" + "─" * width)
    lines.append(
        "            " + f"{x_min:<10g}" + " " * max(0, width - 20) + f"{x_max:>10g}"
    )
    legend = "   ".join(
        f"{markers[index % len(markers)]} {name}" for index, name in enumerate(series.keys())
    )
    lines.append("            " + legend)
    return "\n".join(lines)
