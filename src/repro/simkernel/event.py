"""Scheduled events.

Events are ordered by ``(time, sequence)``: events scheduled for the same
instant fire in scheduling order, which keeps runs fully deterministic
without relying on callback identity. The calendar that holds them and
the loop that fires them live in :mod:`repro.simkernel.kernel`.

Labels may be passed as zero-argument callables so callers on the
scheduling fast path can defer string formatting until a trace or error
actually needs the label.
"""

from __future__ import annotations

from typing import Callable, Union

Callback = Callable[[], None]
#: Either the label itself or a zero-argument factory evaluated lazily.
Label = Union[str, Callable[[], str]]


class Event:
    """A scheduled callback.

    Attributes:
        time: simulation timestamp at which the callback fires.
        sequence: tie-breaker preserving scheduling order.
        callback: the zero-argument callable to invoke.
        label: human-readable tag used in tracing and error messages;
            resolved on first access when scheduled lazily.
    """

    __slots__ = ("time", "sequence", "callback", "_label")

    def __init__(self, time: int, sequence: int, callback: Callback,
                 label: Label = "") -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self._label = label

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
        self.callback = None

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time}, seq={self.sequence}, "
                f"label={self.label!r}{state})")
