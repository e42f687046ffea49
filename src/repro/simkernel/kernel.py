"""The simulation kernel: the clock, the event calendar and the run loop.

The calendar keeps one FIFO *bucket* (a plain list) per distinct pending
timestamp plus a min-heap of those timestamps. Scheduling at an instant
that already has a bucket is a dict lookup and a list append, and the
heap holds one entry per distinct instant rather than per event.
Because a bucket is appended in scheduling order, iterating it front to
back replays the exact ``(time, sequence)`` order of a per-event heap.

Cancelled events stay in their bucket and are skipped, then dropped with
it, when the bucket fires; :attr:`SimulationKernel.pending_events`
counts the live entries on demand. Toto's actors are a few periodic
daemons (paper §3.3), so a paper-steady run fires about 2.9k events and
cancels almost none: the calendar needs nothing more.

Perf notes: the bare class inlines the calendar insert and the event
allocation in every ``schedule*`` body, and ``schedule_oneshot*`` store
the callback itself as a handle-free entry. A kernel constructed with
``detsan`` or an ``observer`` swaps itself to :class:`_InstrumentedKernel`,
so the bare schedule paths carry no instrumentation checks at all.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Union

from repro.errors import SimulationError
from repro.simkernel.event import Callback, Event, Label

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.analysis.detsan import DetSanRecorder

#: What a calendar bucket holds: cancellable events or handle-free raw
#: callbacks (see :meth:`SimulationKernel.schedule_oneshot`).
Entry = Union[Event, Callback]


class KernelObserver(Protocol):
    """Passive instrumentation hooks for the kernel's run loop.

    An observer (e.g. :class:`repro.obs.session.ObsSession`) watches
    events flow through the kernel: ``event_scheduled`` fires at each
    schedule site (after the calendar insert), ``event_begin``/``event_end``
    bracket each callback execution. Observers must be pure — they may
    not schedule events, draw RNG, or mutate simulation state; the
    kernel's event count and ordering are identical with or without
    one attached.
    """

    def event_scheduled(self, event: Event, now: int) -> None:
        """Called after ``event`` is inserted, with the scheduling time."""

    def event_begin(self, event: Event) -> None:
        """Called immediately before ``event.callback()`` runs."""

    def event_end(self, event: Event) -> None:
        """Called after ``event.callback()`` returns (or raises)."""


class SimulationKernel:
    """Owns simulated time and the event calendar, and fires events.

    Components schedule callbacks with :meth:`schedule` (absolute time)
    or :meth:`schedule_after` (relative delay); :meth:`run_until`
    executes events in timestamp order, advancing :attr:`now`.

    The run loop batch-fires whole same-timestamp buckets: the clock
    advances once per distinct instant and the bucket is drained with a
    plain list iterator — which picks up appends made while iterating,
    so callbacks that schedule further work *at the current instant*
    join the same batch, in exactly per-event heap order.

    ``detsan`` optionally attaches the runtime determinism sanitizer
    (:mod:`repro.analysis.detsan`): every scheduling is then appended
    to its ordered ledger. ``observer`` optionally attaches a
    :class:`KernelObserver` (run observability, docs/OBSERVABILITY.md).
    Either one moves the kernel onto the instrumented subclass; a bare
    kernel pays nothing for instrumentation it does not carry.
    """

    __slots__ = ("_now", "_buckets", "_times", "_seq", "_running",
                 "events_executed", "_detsan", "_observer")

    def __init__(self, start: int = 0,
                 detsan: Optional["DetSanRecorder"] = None,
                 observer: Optional[KernelObserver] = None) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at {start}")
        self._now = int(start)
        #: ``_buckets[t]`` holds every pending entry at ``t`` in
        #: scheduling order; ``_times`` is a min-heap of its keys.
        self._buckets: Dict[int, List[Entry]] = {}
        self._times: List[int] = []
        #: Next sequence number; handle-free entries consume one too,
        #: so every Event's sequence matches an instrumented run's.
        self._seq = 0
        self._running = False
        self.events_executed = 0
        self._detsan = detsan
        self._observer = observer
        if detsan is not None or observer is not None:
            # Same slot layout, instrumentation-aware schedule bodies.
            self.__class__ = _InstrumentedKernel

    @property
    def now(self) -> int:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still waiting to fire (cancelled ones excluded)."""
        return sum(1 for bucket in self._buckets.values() for entry in bucket
                   if entry.__class__ is not Event
                   or entry.callback is not None)  # type: ignore[union-attr]

    def schedule(self, time: int, callback: Callback,
                 label: Label = "") -> Event:
        """Schedule ``callback`` at absolute time ``time``.

        ``label`` may be a string or a zero-argument callable resolved
        lazily — hot-path callers avoid formatting strings per event.
        """
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule '{label}' at {time}, now is {now}")
        if time.__class__ is not int:
            time = int(time)
        sequence = self._seq
        self._seq = sequence + 1
        event = Event(time, sequence, callback, label)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def schedule_after(self, delay: int, callback: Callback,
                       label: Label = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for '{label}'")
        time = self._now + delay
        if time.__class__ is not int:
            time = int(time)
        sequence = self._seq
        self._seq = sequence + 1
        event = Event(time, sequence, callback, label)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def schedule_oneshot(self, time: int, callback: Callback,
                          label: Label = "") -> None:
        """Schedule a fire-and-forget callback at absolute ``time``.

        Semantically :meth:`schedule` with the handle thrown away —
        use it when the caller never cancels. The callback is stored
        in the calendar bucket *directly*, skipping the per-event
        handle allocation that dominates scheduling cost; ordering
        relative to handle-bearing events is unchanged (bucket
        position is the sequence). ``label`` is accepted for API
        symmetry; only instrumented kernels materialize it.
        """
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule '{label}' at {time}, now is {now}")
        if time.__class__ is not int:
            time = int(time)
        self._seq += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heappush(self._times, time)
        else:
            bucket.append(callback)

    def schedule_oneshot_after(self, delay: int, callback: Callback,
                               label: Label = "") -> None:
        """Schedule a fire-and-forget callback ``delay`` s from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for '{label}'")
        time = self._now + delay
        if time.__class__ is not int:
            time = int(time)
        self._seq += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heappush(self._times, time)
        else:
            bucket.append(callback)

    def run_until(self, end_time: int) -> None:
        """Execute events in order until the clock reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are *not* executed, so
        consecutive ``run_until`` calls partition time into half-open
        intervals ``[start, end)``. The clock always finishes at
        ``end_time`` even if the calendar drains early. A callback that
        raises is consumed (not counted as executed) and the exception
        propagates; the rest of its bucket fires on the next call.
        """
        if self._running:
            raise SimulationError("run_until is not re-entrant")
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time} is before now {self._now}")
        self._running = True
        times = self._times
        buckets = self._buckets
        observer = self._observer
        executed = 0
        try:
            while times:
                time = times[0]
                if time >= end_time:
                    break
                bucket = buckets[time]
                # The heap front is never in the past: every schedule
                # path validates against now.
                self._now = time
                dead = 0
                try:
                    if observer is None:
                        for entry in bucket:
                            if entry.__class__ is Event:
                                callback = entry.callback
                                if callback is None:
                                    dead += 1
                                    continue
                                callback()
                            else:
                                # Handle-free one-shot: the entry IS the
                                # callback (see schedule_oneshot).
                                entry()
                    else:
                        for entry in bucket:
                            if entry.__class__ is not Event:
                                entry()
                                continue
                            if entry.callback is None:
                                dead += 1
                                continue
                            observer.event_begin(entry)
                            try:
                                entry.callback()
                            finally:
                                observer.event_end(entry)
                except BaseException:
                    # Drop the fired prefix, the failing entry included,
                    # so the next run resumes at the unfired tail. With
                    # handle-free entries index() matches by identity:
                    # if the *same* callback object was one-shot
                    # scheduled twice at this instant the resume point
                    # is the first occurrence — exactness is only
                    # guaranteed for handle-bearing events.
                    consumed = bucket.index(entry) + 1
                    executed += consumed - dead - 1
                    del bucket[:consumed]
                    raise
                executed += len(bucket) - dead
                del buckets[time]
                # The firing bucket is always the heap front: callbacks
                # can only schedule at >= the current instant.
                heappop(times)
            self._now = end_time
        finally:
            self.events_executed += executed
            self._running = False


class _InstrumentedKernel(SimulationKernel):
    """Kernel variant carrying detsan and/or observer instrumentation.

    Selected automatically by :class:`SimulationKernel.__init__`; never
    instantiated directly. Each schedule path runs the bare insert,
    then appends to the detsan ledger and notifies the observer; the
    one-shot paths keep a full :class:`Event` so labels and observer
    hooks see every scheduling. Keeping the two classes apart lets the
    bare kernel's schedule paths skip even the ``is None`` tests.
    """

    __slots__ = ()

    def schedule(self, time: int, callback: Callback,
                 label: Label = "") -> Event:
        now = self._now
        event = SimulationKernel.schedule(self, time, callback, label)
        if self._detsan is not None:
            self._detsan.record_event(event.time, label)
        if self._observer is not None:
            self._observer.event_scheduled(event, now)
        return event

    def schedule_after(self, delay: int, callback: Callback,
                       label: Label = "") -> Event:
        now = self._now
        event = SimulationKernel.schedule_after(self, delay, callback, label)
        if self._detsan is not None:
            self._detsan.record_event(event.time, label)
        if self._observer is not None:
            self._observer.event_scheduled(event, now)
        return event

    def schedule_oneshot(self, time: int, callback: Callback,
                          label: Label = "") -> None:
        self.schedule(time, callback, label)

    def schedule_oneshot_after(self, delay: int, callback: Callback,
                               label: Label = "") -> None:
        self.schedule_after(delay, callback, label)
