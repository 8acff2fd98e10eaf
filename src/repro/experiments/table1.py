"""Table 1: comparison of general range-query schemes.

The paper's Table 1 is analytic (functionality, underlying-DHT degree,
asymptotic average delay, delay-boundedness).  The reproduction keeps the
static columns and *adds measured numbers*: every scheme is built at the same
network size, loaded with the same objects, and swept with the same random
queries, so the asymptotic claims can be checked empirically (e.g. PHT's
``O(b log N)`` delay really is several times ``log N``; Skip Graph / SCRAP
really behave like ``log N + n``; only Armada stays below ``log N``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.analysis.stats import AggregateRow
from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentConfig, build_and_load, make_values, run_scheme_queries
from repro.rangequery.armada_scheme import ArmadaScheme
from repro.rangequery.base import RangeQueryScheme
from repro.rangequery.dcf_can import DcfCanScheme
from repro.rangequery.pht import PhtScheme
from repro.rangequery.scrap import ScrapScheme
from repro.rangequery.skipgraph_scheme import SkipGraphScheme
from repro.rangequery.squid import SquidScheme

#: the asymptotic delays quoted in the paper's Table 1
_PAPER_DELAY_CLAIMS: Dict[str, str] = {
    "Squid": "O(h*logN)",
    "Skip Graph": "O(logN+n)",
    "SCRAP": "O(logN+n)",
    "DCF-CAN": "> O(N^(1/d))",
    "PHT": "O(b*logN)",
    "Armada (PIRA)": "< logN",
}


@dataclass
class Table1Row:
    """One scheme's static description plus measured behaviour."""

    scheme: str
    degree: str
    single_attribute: bool
    multi_attribute: bool
    paper_delay: str
    delay_bounded: bool
    measured: AggregateRow


@dataclass
class Table1Result:
    """All rows of the reproduced Table 1."""

    network_size: int
    range_size: float
    rows: List[Table1Row] = field(default_factory=list)

    def row_for(self, scheme_name: str) -> Table1Row:
        """Find a row by scheme name (raises if absent)."""
        for row in self.rows:
            if row.scheme == scheme_name:
                return row
        raise KeyError(f"no Table 1 row for scheme {scheme_name!r}")

    def format(self) -> str:
        """Render the table."""
        headers = [
            "scheme",
            "degree",
            "single",
            "multi",
            "paper delay",
            "bounded",
            "measured avg delay",
            "measured max delay",
            "logN",
            "avg msgs",
            "avg destpeers",
        ]
        rows = []
        for row in self.rows:
            rows.append(
                [
                    row.scheme,
                    row.degree,
                    row.single_attribute,
                    row.multi_attribute,
                    row.paper_delay,
                    row.delay_bounded,
                    row.measured.avg_delay,
                    row.measured.max_delay,
                    row.measured.log_n,
                    row.measured.avg_messages,
                    row.measured.avg_destinations,
                ]
            )
        title = (
            f"Table 1: general range-query schemes, measured at N={self.network_size}, "
            f"range size {self.range_size:g}"
        )
        return format_table(headers, rows, title=title)


def default_scheme_factories(config: ExperimentConfig) -> Dict[str, Callable[[], RangeQueryScheme]]:
    """The schemes compared in Table 1 (all general schemes that can be simulated)."""
    space = config.space
    return {
        "Squid": lambda: SquidScheme(space=space),
        "Skip Graph": lambda: SkipGraphScheme(space=space),
        "SCRAP": lambda: ScrapScheme(space=space),
        "DCF-CAN": lambda: DcfCanScheme(space=space),
        "PHT": lambda: PhtScheme(space=space, substrate="fissione"),
        "Armada (PIRA)": lambda: ArmadaScheme(space=space, object_id_length=config.object_id_length),
    }


def run(
    config: ExperimentConfig,
    scheme_names: Sequence[str] = (),
) -> Table1Result:
    """Build every scheme at ``config.peers`` and measure the comparison row."""
    factories = default_scheme_factories(config)
    if scheme_names:
        factories = {name: factories[name] for name in scheme_names}
    values = make_values(config)
    result = Table1Result(network_size=config.peers, range_size=config.fixed_range_size)
    for name, factory in factories.items():
        scheme = build_and_load(factory, config, config.peers, values)
        row = run_scheme_queries(scheme, config, config.fixed_range_size, config.peers)
        description = scheme.describe()
        result.rows.append(
            Table1Row(
                scheme=name,
                degree=description["degree"],
                single_attribute=description["single_attribute"],
                multi_attribute=description["multi_attribute"],
                paper_delay=_PAPER_DELAY_CLAIMS.get(name, "-"),
                delay_bounded=description["delay_bounded"],
                measured=row,
            )
        )
    return result
