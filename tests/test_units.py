"""Tests for time/size unit helpers."""

from repro.units import (
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    day_index,
    format_duration,
    hour_of_day,
    hours,
    is_weekend,
    weekday_index,
)


class TestConstants:
    def test_minute(self):
        assert MINUTE == 60

    def test_hour(self):
        assert HOUR == 3600

    def test_day(self):
        assert DAY == 24 * HOUR

    def test_week(self):
        assert WEEK == 7 * DAY


class TestHourOfDay:
    def test_time_zero(self):
        assert hour_of_day(0) == 0

    def test_mid_hour(self):
        assert hour_of_day(HOUR + 120) == 1

    def test_last_hour(self):
        assert hour_of_day(23 * HOUR) == 23

    def test_wraps_at_midnight(self):
        assert hour_of_day(DAY) == 0

    def test_second_day(self):
        assert hour_of_day(DAY + 5 * HOUR) == 5


class TestDayIndex:
    def test_first_day(self):
        assert day_index(0) == 0
        assert day_index(DAY - 1) == 0

    def test_second_day(self):
        assert day_index(DAY) == 1


class TestWeekday:
    def test_monday_start(self):
        assert weekday_index(0) == 0

    def test_saturday(self):
        assert weekday_index(5 * DAY) == 5

    def test_wraps_after_week(self):
        assert weekday_index(7 * DAY) == 0

    def test_custom_start_weekday(self):
        # Start on Friday (4): next day is Saturday.
        assert weekday_index(DAY, start_weekday=4) == 5

    def test_weekend_detection(self):
        assert not is_weekend(0)            # Monday
        assert not is_weekend(4 * DAY)      # Friday
        assert is_weekend(5 * DAY)          # Saturday
        assert is_weekend(6 * DAY)          # Sunday
        assert not is_weekend(7 * DAY)      # Monday again

    def test_weekend_with_start_offset(self):
        assert is_weekend(0, start_weekday=6)
        assert not is_weekend(DAY, start_weekday=6)


class TestFormatting:
    def test_hours_conversion(self):
        assert hours(2 * HOUR) == 2.0
        assert hours(90 * MINUTE) == 1.5

    def test_format_short(self):
        assert format_duration(3 * HOUR + 5 * MINUTE + 7) == "03:05:07"

    def test_format_with_days(self):
        assert format_duration(2 * DAY + 3 * HOUR) == "2d 03:00:00"

    def test_format_zero(self):
        assert format_duration(0) == "00:00:00"
