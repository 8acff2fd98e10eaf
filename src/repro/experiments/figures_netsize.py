"""Figures 7 and 8: impact of the network size (range size fixed at 20).

The paper varies the number of peers from 1000 to 8000 with the queried
range size fixed at 20 and reports, per point:

* Figure 7 -- query delay of PIRA and DCF-CAN against the ``log N`` line;
* Figure 8(a) -- message cost of PIRA and DCF-CAN plus PIRA's ``Destpeers``;
* Figure 8(b) -- PIRA's ``MesgRatio`` and ``IncreRatio``.

Expected shape: PIRA's delay stays below ``log N`` and grows only
logarithmically, while DCF-CAN's grows like ``N**(1/2)``; the message costs
stay close, with PIRA slightly better; both ratios hover around 2.

The figures are one sweep grid (:func:`preset`) run by the orchestrator,
so every point builds its own overlay from its own derived seed and
``repro sweep`` over the same grid yields the same records.
"""

from __future__ import annotations

from repro.analysis.figures import FigureGrid
from repro.experiments.common import ExperimentConfig
from repro.experiments.orchestrator import SweepSpec, run_sweep


def preset(config: ExperimentConfig) -> SweepSpec:
    """The Figure 7/8 grid: PIRA and DCF-CAN at every network size, fixed range size."""
    return SweepSpec.from_config(
        config, network_sizes=config.network_sizes, range_sizes=(config.fixed_range_size,)
    )


def run(config: ExperimentConfig) -> FigureGrid:
    """Run the network-size sweep of Figures 7 and 8."""
    return FigureGrid(
        records=run_sweep(preset(config)).records,
        x_key="network_size",
        x_header="peers",
        title="Figures 7 / 8: impact of network size (range size fixed)",
        figures=(
            ("figure7", "Figure 7: query delay vs network size"),
            ("figure8a", "Figure 8(a): messages vs network size"),
            ("figure8b", "Figure 8(b): MesgRatio / IncreRatio"),
        ),
    )
