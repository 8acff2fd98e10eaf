"""Section 3: FISSIONE topology properties (degree, PeerID lengths, routing).

Average out-degree about 2 (total degree about 4), maximum PeerID length --
hence worst-case routing -- below 2 logN, average PeerID length and average
routing delay below logN.
"""

from __future__ import annotations

from repro.experiments import fissione_props


def test_section_3_fissione_topology_properties(config):
    result = fissione_props.run(config, routing_samples=150)

    assert result.points
    assert result.all_within_bounds()
    for point in result.points:
        assert point.healthy
        assert 1.5 <= point.average_out_degree <= 2.5
        assert point.average_route_hops < point.log_n + 1
