"""Ablation: PIRA's FRT pruning vs an unpruned descent.

Not a paper figure -- this quantifies the design decision DESIGN.md calls
out.  Removing the pruning predicate keeps results identical but makes the
message cost grow towards the network size, especially for small ranges.
"""

from __future__ import annotations

from repro.experiments import ablation


def test_ablation_pruning_effectiveness(config):
    config = config.with_overrides(peers=800, range_sizes=(2, 20, 100, 300))
    result = ablation.run(config, queries_per_point=10)

    assert result.points
    for point in result.points:
        assert point.same_destinations, "pruning must not change the destination set"
        assert point.unpruned_messages > point.pira_messages
    # For highly selective queries the savings are dramatic.
    assert result.points[0].message_savings > 5.0
    # Savings shrink as the query covers more of the network.
    assert result.points[0].message_savings > result.points[-1].message_savings
