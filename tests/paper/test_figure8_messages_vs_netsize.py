"""Figure 8: message cost vs network size (range size fixed at 20).

Figure 8(a): PIRA's and DCF-CAN's message costs stay close as N grows, with
Destpeers growing proportionally to N (the number of peers covering a fixed
fraction of the attribute space).  Figure 8(b): MesgRatio and IncreRatio stay
near 2 at every network size.
"""

from __future__ import annotations


def test_figure8_messages_vs_network_size(netsize_sweep):
    pira_rows = netsize_sweep.pira_rows
    dcf_rows = netsize_sweep.dcf_rows

    # 8(a): message costs stay within a small factor of each other at every N,
    # and PIRA's messages track logN + 2n - 2.
    for pira, dcf in zip(pira_rows, dcf_rows):
        assert dcf.avg_messages < 3.0 * pira.avg_messages
        assert pira.avg_messages < 3.0 * dcf.avg_messages
        predicted = pira.log_n + 2 * pira.avg_destinations - 2
        assert abs(pira.avg_messages - predicted) / predicted < 0.35

    # Destpeers grows with N (fixed range fraction => proportional coverage).
    destinations = [row.avg_destinations for row in pira_rows]
    assert destinations[-1] > destinations[0]

    # 8(b): ratios near 2.
    for row in pira_rows:
        assert 1.5 <= row.mesg_ratio <= 2.8
        assert row.incre_ratio <= 2.5
