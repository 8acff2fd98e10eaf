"""Figures 5 and 6: impact of the range size (N = 2000 peers).

The paper varies the queried range size from 2 to 300 over a 2000-peer
network and reports, averaged over 1000 random queries per point:

* Figure 5 -- query delay of PIRA and DCF-CAN, against the ``log N`` line;
* Figure 6(a) -- message cost of PIRA and DCF-CAN, plus PIRA's ``Destpeers``;
* Figure 6(b) -- PIRA's ``MesgRatio`` and ``IncreRatio``.

Expected shape: PIRA's delay is flat (delay-bounded, below ``log N``) while
DCF-CAN's grows with the range size; the message costs of the two schemes are
close; ``MesgRatio`` and ``IncreRatio`` hover around 2.

The figures are one sweep grid (:func:`preset`) run by the orchestrator,
so every point builds its own overlay from its own derived seed and
``repro sweep`` over the same grid yields the same records.
"""

from __future__ import annotations

from repro.analysis.figures import FigureGrid
from repro.experiments.common import ExperimentConfig
from repro.experiments.orchestrator import SweepSpec, run_sweep


def preset(config: ExperimentConfig) -> SweepSpec:
    """The Figure 5/6 grid: PIRA and DCF-CAN at every range size, N = ``config.peers``."""
    return SweepSpec.from_config(config)


def run(config: ExperimentConfig) -> FigureGrid:
    """Run the range-size sweep of Figures 5 and 6."""
    return FigureGrid(
        records=run_sweep(preset(config)).records,
        x_key="range_size",
        x_header="range size",
        title=f"Figures 5 / 6: impact of range size (N = {config.peers})",
        figures=(
            ("figure5", "Figure 5: query delay vs range size"),
            ("figure6a", "Figure 6(a): messages vs range size"),
            ("figure6b", "Figure 6(b): MesgRatio / IncreRatio"),
        ),
    )
