"""Simulated clock.

A thin mutable wrapper around the current simulation time, shared by the
kernel and every component that needs "now". Time never flows backwards.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.units import DAY, HOUR, format_duration


class SimClock:
    """Monotonic integer-second simulation clock."""

    __slots__ = ("_now",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at {start}")
        self._now = int(start)

    @property
    def now(self) -> int:
        """Current simulation time in seconds."""
        return self._now

    @property
    def hour_of_day(self) -> int:
        """Hour of day (0-23) at the current time."""
        return (self._now % DAY) // HOUR

    def advance_to(self, timestamp: int) -> None:
        """Move the clock forward to ``timestamp``.

        Raises :class:`SimulationError` if that would move time backwards.
        """
        timestamp = int(timestamp)
        if timestamp < self._now:
            raise SimulationError(
                f"cannot move clock backwards: {timestamp} < {self._now}")
        self._now = timestamp

    def __repr__(self) -> str:
        return f"SimClock({format_duration(self._now)})"
