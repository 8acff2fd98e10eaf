"""Section 5: MIRA multi-attribute range queries are delay-bounded.

The paper gives no multi-attribute figure, only the claim that MIRA's delay
stays below the FRT height (< 2 logN worst case, < logN on average)
regardless of the query-space size; this test measures it for 2- and
3-attribute workloads and several query-box sizes, and verifies result
completeness against a brute-force oracle.
"""

from __future__ import annotations

from repro.experiments import mira


def test_section_5_mira_multiattribute_queries(config):
    config = config.with_overrides(peers=500, objects=1500, queries_per_point=40)
    result = mira.run(config, attribute_counts=(2, 3), box_sizes=(20.0, 100.0, 300.0))

    assert result.points
    assert result.all_complete(), "MIRA must return exactly the matching objects"
    assert result.all_delay_bounded(), "MIRA worst-case delay must stay below 2*logN"
    for point in result.points:
        assert point.avg_delay <= point.log_n + 0.5
