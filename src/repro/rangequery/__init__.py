"""Baseline general range-query schemes and the common scheme interface.

Every scheme in the paper's Table 1 that can be simulated is implemented
here behind one interface (:class:`repro.rangequery.base.RangeQueryScheme`),
so the experiment harness can sweep them uniformly:

* :mod:`repro.rangequery.armada_scheme` -- Armada/PIRA (the paper's scheme).
* :mod:`repro.rangequery.dcf_can` -- directed controlled flooding over CAN
  (Andrzejak & Xu), the head-to-head baseline of Figures 5-8.
* :mod:`repro.rangequery.pht` -- Prefix Hash Trees over any DHT (Chord or
  FISSIONE).
* :mod:`repro.rangequery.squid` -- Squid: space-filling-curve clusters over
  Chord.
* :mod:`repro.rangequery.scrap` -- SCRAP: SFC + Skip Graph.
* :mod:`repro.rangequery.skipgraph_scheme` -- native Skip Graph range scans.
* :mod:`repro.rangequery.sfc` -- Z-order and Hilbert space-filling curves.
"""

from repro.rangequery.armada_scheme import ArmadaScheme
from repro.rangequery.base import QueryMeasurement, RangeQueryScheme
from repro.rangequery.dcf_can import DcfCanScheme
from repro.rangequery.pht import PhtScheme
from repro.rangequery.scrap import ScrapScheme
from repro.rangequery.sfc import hilbert_d2xy, hilbert_xy2d, morton_decode, morton_encode
from repro.rangequery.skipgraph_scheme import SkipGraphScheme
from repro.rangequery.squid import SquidScheme

__all__ = [
    "ArmadaScheme",
    "QueryMeasurement",
    "RangeQueryScheme",
    "DcfCanScheme",
    "PhtScheme",
    "ScrapScheme",
    "SkipGraphScheme",
    "SquidScheme",
    "hilbert_d2xy",
    "hilbert_xy2d",
    "morton_decode",
    "morton_encode",
]
