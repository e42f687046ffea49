"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.simkernel import Event, EventQueue, PeriodicProcess, SimClock, \
    SimulationKernel
from repro.units import HOUR


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_custom_start(self):
        assert SimClock(100).now == 100

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1)

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(50)
        assert clock.now == 50

    def test_advance_to_same_time_ok(self):
        clock = SimClock(10)
        clock.advance_to(10)
        assert clock.now == 10

    def test_cannot_go_backwards(self):
        clock = SimClock(10)
        with pytest.raises(SimulationError):
            clock.advance_to(9)

    def test_hour_of_day(self):
        clock = SimClock(3 * HOUR + 10)
        assert clock.hour_of_day == 3


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(30, lambda: None, "late")
        queue.push(10, lambda: None, "early")
        assert queue.pop().label == "early"
        assert queue.pop().label == "late"

    def test_fifo_within_same_time(self):
        queue = EventQueue()
        queue.push(5, lambda: None, "first")
        queue.push(5, lambda: None, "second")
        assert queue.pop().label == "first"
        assert queue.pop().label == "second"

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.push(5, lambda: None, "cancel-me")
        queue.push(6, lambda: None, "keep")
        event.cancel()
        assert queue.pop().label == "keep"

    def test_empty_pop_returns_none(self):
        assert EventQueue().pop() is None

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1, lambda: None)

    def test_len_counts_only_live_events(self):
        queue = EventQueue()
        events = [queue.push(t, lambda: None) for t in range(10)]
        events[3].cancel()
        events[7].cancel()
        assert len(queue) == 8

    def test_lazy_label_resolved_on_access(self):
        queue = EventQueue()
        calls = []

        def label():
            calls.append(1)
            return "expensive-label"

        event = queue.push(5, lambda: None, label)
        assert calls == []          # not formatted at scheduling time
        assert event.label == "expensive-label"
        assert event.label == "expensive-label"
        assert calls == [1]         # resolved exactly once


class TestEventQueueCompaction:
    def test_cancelled_debris_compacts(self):
        """Cancelling most of a large heap sheds the dead entries."""
        queue = EventQueue()
        keep = [queue.push(t, lambda: None, "keep") for t in range(0, 50)]
        doomed = [queue.push(t, lambda: None, "doomed")
                  for t in range(50, 250)]
        for event in doomed:
            event.cancel()
        # Compaction ran (possibly several times): debris stays bounded
        # under the threshold instead of accumulating all 200 entries.
        assert queue.cancelled_pending < EventQueue.COMPACT_MIN
        assert queue.entries_pending < len(keep) + EventQueue.COMPACT_MIN
        assert len(queue) == len(keep)
        # And the survivors still pop in order.
        assert [queue.pop().time for _ in range(3)] == [0, 1, 2]

    def test_small_heaps_not_compacted(self):
        """Tiny heaps skip compaction (below COMPACT_MIN debris)."""
        queue = EventQueue()
        events = [queue.push(t, lambda: None) for t in range(10)]
        for event in events[1:]:
            event.cancel()
        assert queue.cancelled_pending == 9
        assert queue.pop().time == 0

    def test_double_cancel_counted_once(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        event.cancel()
        event.cancel()
        assert queue.cancelled_pending == 1
        assert len(queue) == 1

    def test_explicit_compact_keeps_order(self):
        queue = EventQueue()
        events = [queue.push(t, lambda: None) for t in range(20)]
        for event in events[::2]:
            event.cancel()
        queue.compact()
        assert queue.cancelled_pending == 0
        assert [queue.pop().time for _ in range(10)] \
            == list(range(1, 20, 2))


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

    def test_run_to_completion(self, kernel):
        log = []
        kernel.schedule(10, lambda: log.append(1))
        kernel.schedule(20, lambda: log.append(2))
        kernel.run_to_completion()
        assert log == [1, 2]
        assert kernel.now == 20

    def test_run_to_completion_loop_guard(self, kernel):
        def forever():
            kernel.schedule_after(1, forever)

        kernel.schedule(0, forever)
        with pytest.raises(SimulationError):
            kernel.run_to_completion(max_events=100)

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
