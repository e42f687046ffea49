"""Figure 6 — dispersion of creates per hour-of-day.

Four panels: Standard/GP weekday/weekend (a, b) and Premium/BC
weekday/weekend (c, d). Expected features (§4.1.2): hourly patterns,
more activity on weekdays, and Premium/BC far below Standard/GP.
"""

from repro.sqldb.editions import Edition
from benchmarks.conftest import emit


def test_fig06_creates_per_hour(benchmark, demographics_study):
    panels = benchmark(demographics_study.figure6_boxes, 14)
    lines = []
    for (edition, daytype), boxes in panels.items():
        medians = " ".join(f"{box.median:5.1f}" for box in boxes)
        lines.append(f"{edition.short_name:>2} {daytype:>7}: {medians}")
    emit("Figure 6 — median creates per hour-of-day", "\n".join(lines))

    def daily_median(edition, daytype):
        return sum(box.median
                   for box in panels[(edition, daytype)])

    # (1) hourly pattern: business hours well above night.
    gp_weekday = panels[(Edition.STANDARD_GP, "weekday")]
    assert gp_weekday[13].median > 2 * gp_weekday[3].median
    # (2) weekdays busier than weekends for both editions.
    assert daily_median(Edition.STANDARD_GP, "weekday") > \
        daily_median(Edition.STANDARD_GP, "weekend")
    assert daily_median(Edition.PREMIUM_BC, "weekday") > \
        daily_median(Edition.PREMIUM_BC, "weekend")
    # (3) BC has significantly fewer creates across all hours.
    assert daily_median(Edition.PREMIUM_BC, "weekday") < \
        0.4 * daily_median(Edition.STANDARD_GP, "weekday")

    benchmark.extra_info["gp_weekday_daily"] = round(
        daily_median(Edition.STANDARD_GP, "weekday"), 1)
    benchmark.extra_info["bc_weekday_daily"] = round(
        daily_median(Edition.PREMIUM_BC, "weekday"), 1)
