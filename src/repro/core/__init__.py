"""Armada core: delay-bounded range queries over the FISSIONE DHT.

Public entry points
-------------------

* :class:`repro.core.armada.ArmadaSystem` -- build a network, publish
  objects, run range queries.
* :func:`repro.core.single_hash.single_hash` /
  :class:`repro.core.single_hash.SingleAttributeNamer` -- the
  order-preserving single-attribute naming algorithm.
* :func:`repro.core.multiple_hash.multiple_hash` /
  :class:`repro.core.multiple_hash.MultiAttributeNamer` -- the
  partial-order-preserving multi-attribute naming algorithm.
* :class:`repro.core.pira.PiraExecutor` / :class:`repro.core.mira.MiraExecutor`
  -- the pruning routing algorithms (single / multi attribute).
* :class:`repro.core.frt.ForwardRoutingTree` -- explicit forward routing
  trees for inspection and testing.
"""

from repro.core.armada import ArmadaSystem, ExactQueryResult
from repro.core.errors import ArmadaError, NamingError, QueryError
from repro.core.frt import ForwardRoutingTree, descendant_prefix, destination_level, longest_suffix_prefix
from repro.core.mira import MiraExecutor
from repro.core.multiple_hash import Box, MultiAttributeNamer, multiple_hash
from repro.core.partition_tree import Interval, PartitionTree
from repro.core.pira import PiraExecutor, RangeQueryResult
from repro.core.single_hash import SingleAttributeNamer, range_to_region, single_hash

__all__ = [
    "ArmadaSystem",
    "ExactQueryResult",
    "ArmadaError",
    "NamingError",
    "QueryError",
    "ForwardRoutingTree",
    "descendant_prefix",
    "destination_level",
    "longest_suffix_prefix",
    "MiraExecutor",
    "Box",
    "MultiAttributeNamer",
    "multiple_hash",
    "Interval",
    "PartitionTree",
    "PiraExecutor",
    "RangeQueryResult",
    "SingleAttributeNamer",
    "range_to_region",
    "single_hash",
]
