"""Events and the pending-event queue (bucketed calendar queue).

Events are ordered by ``(time, sequence)``: events scheduled for the same
instant fire in scheduling order, which keeps runs fully deterministic
without relying on callback identity.

Hot-path layout: instead of a single binary heap of ``(time, sequence,
event)`` tuples, the queue keeps one FIFO *bucket* (a plain list) per
distinct timestamp plus a small min-heap of the distinct timestamps
themselves. Scheduling an event at an already-populated timestamp is a
dict lookup and a list append — no heap sift at all — and the heap only
ever holds one entry per distinct instant, so its size (and the cost of
the occasional ``heappush``) is bounded by the number of *distinct*
pending timestamps rather than the number of pending events. Because a
bucket is appended in scheduling order, iterating it front-to-back
replays the exact ``(time, sequence)`` order of the old heap; the kernel
exploits this to batch-fire a whole same-timestamp bucket per clock
advance (see :mod:`repro.simkernel.kernel`).

Sizing is counter-based so the push path carries no explicit size
update: ``_seq`` counts every entry ever pushed (it doubles as the
sequence source), ``_popped`` counts every entry consumed, and
``_cancelled`` counts cancelled debris still buried in buckets — so
``len(queue) == _seq - _popped - _cancelled``.

Cancellation keeps the lazy-debris semantics of the heap design:
cancelled events stay in their bucket until they surface, and once more
than half of all queued entries (and at least ``COMPACT_MIN``) are
cancelled debris, the queue compacts in one linear pass. Compaction is
deferred while the kernel is mid-batch (``_locked``) because it rewrites
the bucket lists the kernel iterates; when it runs, it rewrites the
bucket map and times heap *in place* — the kernel holds references to
both across a whole run.

Handle-free entries: the kernel's ``schedule_oneshot`` path appends the
*callback itself* to a bucket instead of an :class:`Event` — most
schedule sites discard the returned handle, and the Event allocation is
the single largest cost of scheduling. Queue scans therefore dispatch
on ``entry.__class__ is Event``; a raw entry is always live (it has no
cancel handle). :meth:`EventQueue.pop` synthesizes a handle (sequence
``-1``) when it surfaces a raw entry, so the pop-based API stays
uniform.

Labels may be passed as zero-argument callables so callers on the
scheduling fast path can defer string formatting until a trace or error
actually needs the label.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Union

from repro.errors import SimulationError

Callback = Callable[[], None]
#: Either the label itself or a zero-argument factory evaluated lazily.
Label = Union[str, Callable[[], str]]
#: What a bucket holds: cancellable events or handle-free raw callbacks.
Entry = Union["Event", Callback]


class Event:
    """A scheduled callback.

    Attributes:
        time: simulation timestamp at which the callback fires.
        sequence: tie-breaker preserving scheduling order.
        callback: the zero-argument callable to invoke.
        label: human-readable tag used in tracing and error messages;
            resolved on first access when scheduled lazily.
    """

    __slots__ = ("time", "sequence", "callback", "_label", "_queue")

    def __init__(self, time: int, sequence: int, callback: Callback,
                 label: Label = "",
                 queue: Optional["EventQueue"] = None) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self._label = label
        self._queue = queue

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` ran.

        Cancellation is stored as ``callback is None`` rather than in a
        separate slot: the fire loop has to load ``callback`` anyway,
        so the cancelled test rides along for free and event creation
        (the simulator's hottest allocation) saves one slot store.
        """
        return self.callback is None

    @property
    def label(self) -> str:
        label = self._label
        if not isinstance(label, str):
            label = label()
            self._label = label
        return label

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its bucket fires."""
        if self.callback is not None:
            self.callback = None
            if self._queue is not None:
                self._queue._note_cancelled()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time}, seq={self.sequence}, "
                f"label={self.label!r}{state})")


def _live_entries(entries: List[Entry]) -> List[Entry]:
    """A bucket's surviving entries: cancelled :class:`Event`s dropped.

    Raw-callback entries are never cancellable, so they always survive.
    """
    return [entry for entry in entries
            if entry.__class__ is not Event
            or entry.callback is not None]  # type: ignore[union-attr]


class EventQueue:
    """A calendar queue of :class:`Event` objects.

    Structure invariants:

    * ``_buckets[t]`` holds every pending entry scheduled at ``t`` in
      scheduling (= sequence) order; ``_times`` is a min-heap of exactly
      the keys of ``_buckets``.
    * ``_front`` is a consumption cursor into the *front* bucket only
      (``_times[0]``); entries before it have already been popped.
      Every other bucket is unconsumed.
    * ``_seq`` is the next sequence number == total entries ever
      pushed; ``_popped`` counts consumed entries (fired, popped, or
      skipped as debris); ``_cancelled`` counts cancelled debris still
      in buckets. ``len(queue) == _seq - _popped - _cancelled``.

    The kernel's batch-fire loop reads these internals directly (they
    are package-private, not API) and sets ``_locked`` while it iterates
    a bucket; ``_note_cancelled`` defers compaction until the bucket is
    released so the iterated list object is never swapped mid-batch.
    """

    __slots__ = ("_buckets", "_times", "_seq", "_popped", "_cancelled",
                 "_front", "_locked", "_compact_pending")

    #: Minimum cancelled-entry count before compaction is considered.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._buckets: Dict[int, List[Entry]] = {}
        self._times: List[int] = []
        self._seq = 0
        self._popped = 0
        self._cancelled = 0
        self._front = 0
        self._locked = False
        self._compact_pending = False

    def __len__(self) -> int:
        return self._seq - self._popped - self._cancelled

    def push(self, time: int, callback: Callback, label: Label = "") -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        if time < 0:
            raise SimulationError(f"cannot schedule at negative time {time}")
        time = int(time)
        sequence = self._seq
        self._seq = sequence + 1
        event = Event(time, sequence, callback, label, self)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None.

        A handle-free entry (see module docstring) is wrapped in a
        synthetic :class:`Event` with sequence ``-1`` so callers see a
        uniform type; its firing order is still exact.
        """
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            bucket = buckets[time]
            i = self._front
            n = len(bucket)
            while i < n:
                entry = bucket[i]
                i += 1
                if entry.__class__ is Event:
                    if entry.callback is None:  # type: ignore[union-attr]
                        self._cancelled -= 1
                        self._popped += 1
                        continue
                else:
                    entry = Event(time, -1, entry, "", self)  # type: ignore[arg-type]
                self._front = i
                self._popped += 1
                return entry  # type: ignore[return-value]
            del buckets[time]
            heappop(times)
            self._front = 0
        return None

    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Account one newly cancelled entry; compact when dominated."""
        self._cancelled += 1
        if (self._cancelled >= self.COMPACT_MIN
                and self._cancelled * 2 > self._seq - self._popped):
            if self._locked:
                # The kernel is mid-batch iterating a bucket; rewriting
                # the bucket lists now would invalidate its iterator.
                self._compact_pending = True
            else:
                self.compact()

    def compact(self) -> None:
        """Drop all cancelled entries and rebuild (linear time).

        Rebuilds *in place*: the kernel's run loop binds the bucket map
        and the times heap once per run, so compaction must never swap
        the container objects out from under it.
        """
        if self._locked:
            self._compact_pending = True
            return
        if self._cancelled == 0:
            return
        buckets = self._buckets
        times = self._times
        front_time = times[0] if times else None
        size = 0
        emptied = []
        for time, entries in buckets.items():
            if time == front_time and self._front:
                entries_view: List[Entry] = entries[self._front:]
            else:
                entries_view = entries
            live = _live_entries(entries_view)
            if live:
                entries[:] = live
                size += len(live)
            else:
                emptied.append(time)
        for time in emptied:
            del buckets[time]
        times[:] = buckets
        heapify(times)
        self._popped = self._seq - size
        self._cancelled = 0
        self._front = 0

    def _release(self) -> None:
        """Run the compaction deferred while the kernel held a batch.

        The kernel clears ``_locked`` itself on the fast path; this is
        only called when ``_compact_pending`` was set mid-batch.
        """
        self._compact_pending = False
        if (self._cancelled >= self.COMPACT_MIN
                and self._cancelled * 2 > self._seq - self._popped):
            self.compact()

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still buried in the queue (for tests)."""
        return self._cancelled

    @property
    def entries_pending(self) -> int:
        """All queued entries including cancelled debris (for tests)."""
        return self._seq - self._popped
