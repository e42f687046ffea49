"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.simkernel import PeriodicProcess, SimulationKernel
from repro.units import HOUR, hour_of_day


class TestClock:
    """The kernel owns simulated time: ``start``, ``now``, ``run_until``."""

    def test_starts_at_zero(self):
        assert SimulationKernel().now == 0

    def test_custom_start(self):
        assert SimulationKernel(100).now == 100

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimulationKernel(-1)

    def test_advance(self):
        kernel = SimulationKernel()
        kernel.run_until(50)
        assert kernel.now == 50

    def test_advance_to_same_time_ok(self):
        kernel = SimulationKernel(10)
        kernel.run_until(10)
        assert kernel.now == 10

    def test_cannot_go_backwards(self):
        kernel = SimulationKernel(10)
        with pytest.raises(SimulationError):
            kernel.run_until(9)
        assert kernel.now == 10

    def test_hour_of_day(self):
        assert hour_of_day(SimulationKernel(3 * HOUR + 10).now) == 3


class TestEventQueue:
    """The kernel's event calendar: order, cancellation, live count."""

    def test_orders_by_time(self, kernel):
        log = []
        kernel.schedule(30, lambda: log.append("late"), "late")
        kernel.schedule(10, lambda: log.append("early"), "early")
        kernel.run_until(11)
        assert log == ["early"]
        kernel.run_until(31)
        assert log == ["early", "late"]

    def test_fifo_within_same_time(self, kernel):
        log = []
        kernel.schedule(5, lambda: log.append("first"), "first")
        kernel.schedule(5, lambda: log.append("second"), "second")
        kernel.run_until(6)
        assert log == ["first", "second"]

    def test_cancelled_events_skipped(self, kernel):
        log = []
        event = kernel.schedule(5, lambda: log.append("cancel-me"))
        kernel.schedule(6, lambda: log.append("keep"))
        event.cancel()
        kernel.run_until(10)
        assert log == ["keep"]
        assert kernel.events_executed == 1

    def test_negative_time_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.schedule(-1, lambda: None)

    def test_len_counts_only_live_events(self, kernel):
        events = [kernel.schedule(t, lambda: None) for t in range(10)]
        kernel.schedule_oneshot(4, lambda: None)
        events[3].cancel()
        events[7].cancel()
        assert kernel.pending_events == 9
        kernel.run_until(5)
        assert kernel.pending_events == 4

    def test_lazy_label_resolved_on_access(self, kernel):
        calls = []

        def label():
            calls.append(1)
            return "expensive-label"

        event = kernel.schedule(5, lambda: None, label)
        assert calls == []          # not formatted at scheduling time
        assert event.label == "expensive-label"
        assert event.label == "expensive-label"
        assert calls == [1]         # resolved exactly once


class TestEventQueueCompaction:
    """Cancelled debris: skipped and dropped when its bucket fires."""

    def test_double_cancel_counted_once(self, kernel):
        event = kernel.schedule(1, lambda: None)
        kernel.schedule(2, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled
        assert kernel.pending_events == 1
        kernel.run_until(3)
        assert kernel.events_executed == 1
        assert kernel.pending_events == 0


class TestKernel:
    def test_executes_in_order(self, kernel):
        log = []
        kernel.schedule(20, lambda: log.append("b"))
        kernel.schedule(10, lambda: log.append("a"))
        kernel.run_until(100)
        assert log == ["a", "b"]

    def test_clock_advances_to_end(self, kernel):
        kernel.run_until(500)
        assert kernel.now == 500

    def test_event_at_end_time_not_executed(self, kernel):
        log = []
        kernel.schedule(100, lambda: log.append("x"))
        kernel.run_until(100)
        assert log == []
        kernel.run_until(101)
        assert log == ["x"]

    def test_schedule_in_past_rejected(self, kernel):
        kernel.run_until(50)
        with pytest.raises(SimulationError):
            kernel.schedule(49, lambda: None)

    def test_schedule_after(self, kernel):
        seen = []
        kernel.run_until(10)
        kernel.schedule_after(5, lambda: seen.append(kernel.now))
        kernel.run_until(100)
        assert seen == [15]

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.schedule_after(-1, lambda: None)

    def test_events_can_schedule_events(self, kernel):
        log = []

        def chain():
            log.append(kernel.now)
            if kernel.now < 30:
                kernel.schedule_after(10, chain)

        kernel.schedule(10, chain)
        kernel.run_until(100)
        assert log == [10, 20, 30]

    def test_counts_executed_events(self, kernel):
        for time in (1, 2, 3):
            kernel.schedule(time, lambda: None)
        kernel.run_until(10)
        assert kernel.events_executed == 3

    def test_run_until_backwards_rejected(self, kernel):
        kernel.run_until(10)
        with pytest.raises(SimulationError):
            kernel.run_until(5)


class TestPeriodicProcess:
    def test_ticks_every_period(self, kernel):
        seen = []
        process = PeriodicProcess(kernel, 10, lambda now: seen.append(now))
        process.start()
        kernel.run_until(45)
        assert seen == [10, 20, 30, 40]

    def test_aligned_start(self, kernel):
        seen = []
        kernel.run_until(130)
        process = PeriodicProcess(kernel, 100, lambda now: seen.append(now),
                                  align_to_period=True)
        process.start()
        kernel.run_until(500)
        assert seen == [200, 300, 400]

    def test_explicit_first_time(self, kernel):
        seen = []
        process = PeriodicProcess(kernel, 10, lambda now: seen.append(now))
        process.start(first_at=3)
        kernel.run_until(30)
        assert seen == [3, 13, 23]

    def test_stop(self, kernel):
        seen = []
        process = PeriodicProcess(kernel, 10, lambda now: seen.append(now))
        process.start()
        kernel.run_until(25)
        process.stop()
        kernel.run_until(100)
        assert seen == [10, 20]

    def test_restart_after_stop(self, kernel):
        seen = []
        process = PeriodicProcess(kernel, 10, lambda now: seen.append(now))
        process.start()
        kernel.run_until(15)
        process.stop()
        process.start()
        kernel.run_until(40)
        assert seen == [10, 25, 35]

    def test_double_start_rejected(self, kernel):
        process = PeriodicProcess(kernel, 10, lambda now: None)
        process.start()
        with pytest.raises(SimulationError):
            process.start()

    def test_tick_may_stop_itself(self, kernel):
        seen = []
        process = PeriodicProcess(kernel, 10, lambda now: (
            seen.append(now), process.stop()))
        process.start()
        kernel.run_until(100)
        assert seen == [10]

    def test_zero_period_rejected(self, kernel):
        with pytest.raises(SimulationError):
            PeriodicProcess(kernel, 0, lambda now: None)

    def test_counts_ticks(self, kernel):
        process = PeriodicProcess(kernel, 10, lambda now: None)
        process.start()
        kernel.run_until(55)
        assert process.ticks_fired == 5
