"""Figure 5: query delay vs range size (PIRA, DCF-CAN, logN).

Expected shape (paper, N=2000, ranges 2..300): PIRA's average delay is flat
and stays below logN regardless of the range size; DCF-CAN's delay is several
times larger and grows markedly with the range size.
"""

from __future__ import annotations


def test_figure5_query_delay_vs_range_size(rangesize_sweep):
    pira = [row.avg_delay for row in rangesize_sweep.pira_rows]
    dcf = [row.avg_delay for row in rangesize_sweep.dcf_rows]
    log_n = rangesize_sweep.log_n

    assert all(delay <= log_n for delay in pira), "PIRA average delay must stay below logN"
    assert max(pira) - min(pira) < 2.5, "PIRA delay must be flat in the range size"
    assert dcf[-1] > dcf[0], "DCF-CAN delay must grow with the range size"
    assert dcf[-1] > pira[-1] * 2, "DCF-CAN must be much slower than PIRA for large ranges"
