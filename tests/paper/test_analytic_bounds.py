"""Section 4.3.2: the analytic delay / message-cost claims, measured.

* maximum delay below 2 logN (delay-boundedness),
* average delay below logN (checked for the non-degenerate network sizes),
* average message cost within a few tens of percent of logN + 2n - 2, always
  above the logN + n - 1 lower bound.
"""

from __future__ import annotations

from repro.experiments import analytics


def test_section_4_3_2_analytic_bounds(config):
    result = analytics.run(config.with_overrides(queries_per_point=40))

    assert result.points
    assert result.all_delay_bounded(), "every query must finish within 2*logN hops"
    for point in result.points:
        if point.network_size >= 1000:
            assert point.average_below_log_n, (
                f"average delay {point.avg_delay} exceeds logN at N={point.network_size}"
            )
        assert point.avg_messages >= point.lower_bound_messages * 0.9
        assert point.message_prediction_error < 0.35
