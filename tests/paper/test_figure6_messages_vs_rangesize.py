"""Figure 6: message cost vs range size.

Figure 6(a): messages of PIRA and DCF-CAN plus PIRA's Destpeers -- the two
schemes are close (PIRA slightly better in the paper; in this reproduction
DCF-CAN's flooding duplicates put it slightly above), and Destpeers is about
half of PIRA's messages.  Figure 6(b): MesgRatio and IncreRatio stay around 2.
"""

from __future__ import annotations


def test_figure6_messages_vs_range_size(rangesize_sweep):
    pira_rows = rangesize_sweep.pira_rows
    dcf_rows = rangesize_sweep.dcf_rows

    # 6(a): message costs of the two schemes stay within a small factor, and
    # Destpeers is roughly half of PIRA's messages for non-trivial ranges.
    for pira, dcf in zip(pira_rows[2:], dcf_rows[2:]):
        assert dcf.avg_messages < 3.0 * pira.avg_messages
        assert pira.avg_messages < 3.0 * dcf.avg_messages
        assert 0.35 <= pira.avg_destinations / pira.avg_messages <= 0.65

    # 6(b): MesgRatio and IncreRatio close to 2 (ignore the degenerate
    # smallest range where Destpeers ~ 1).
    for row in pira_rows[2:]:
        assert 1.5 <= row.mesg_ratio <= 2.8
        assert row.incre_ratio <= 2.5
