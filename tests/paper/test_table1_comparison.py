"""Table 1: comparison of the general range-query schemes.

The static columns reproduce the paper's table; the measured columns check
the asymptotic claims empirically on a common workload: only Armada is
delay-bounded and below logN, Skip Graph / SCRAP behave like logN + n, PHT
pays a multiple of logN, DCF-CAN grows with N^(1/d).
"""

from __future__ import annotations

from repro.experiments import table1


def test_table1_scheme_comparison(config):
    result = table1.run(
        config.with_overrides(peers=512, queries_per_point=40, objects=2000)
    )

    armada = result.row_for("Armada (PIRA)")
    assert armada.delay_bounded
    assert armada.measured.avg_delay <= armada.measured.log_n
    assert armada.measured.max_delay <= 2 * armada.measured.log_n + 1

    for row in result.rows:
        if row.scheme == "Armada (PIRA)":
            continue
        assert not row.delay_bounded
        assert armada.measured.avg_delay <= row.measured.avg_delay, (
            f"{row.scheme} should not beat Armada's delay"
        )

    pht = result.row_for("PHT")
    assert pht.measured.avg_delay > 2 * pht.measured.log_n, "PHT pays a multiple of logN"

    skip_graph = result.row_for("Skip Graph")
    assert (
        skip_graph.measured.avg_delay
        <= skip_graph.measured.log_n + 2 * skip_graph.measured.avg_destinations + 5
    ), "Skip Graph delay should look like logN + n"
