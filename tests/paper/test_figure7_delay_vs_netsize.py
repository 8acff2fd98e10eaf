"""Figure 7: query delay vs network size (range size fixed at 20).

Expected shape: PIRA's delay stays below logN and grows only logarithmically
with N; DCF-CAN's delay grows like N**(1/2) and the gap widens as the network
grows.
"""

from __future__ import annotations


def test_figure7_query_delay_vs_network_size(netsize_sweep):
    pira_rows = netsize_sweep.pira_rows
    dcf_rows = netsize_sweep.dcf_rows

    for row in pira_rows:
        assert row.avg_delay <= row.log_n, "PIRA average delay must stay below logN at every N"
    assert dcf_rows[-1].avg_delay > pira_rows[-1].avg_delay, "DCF-CAN slower at the largest N"
    # The advantage of PIRA grows with the network size (paper's observation).
    gap_small = dcf_rows[0].avg_delay - pira_rows[0].avg_delay
    gap_large = dcf_rows[-1].avg_delay - pira_rows[-1].avg_delay
    assert gap_large > gap_small
