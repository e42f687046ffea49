"""Hourly-normal parameter schedules.

Paper §4.1.3: three features drive the models — weekday vs. weekend,
hour of the day, and edition — yielding "96 (2 x 24 x 2) different
Create DB models". An :class:`HourlyNormalSchedule` holds the
(mu, sigma) pair per (day type, hour) for *one* edition and one model
kind, i.e. one 2 x 24 slice of that grid; the edition dimension is the
selector on the enclosing model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import ModelSpecError
from repro.units import HOUR, is_weekend

HOURS = tuple(range(24))


class DayType(enum.Enum):
    """Weekday vs. weekend, the paper's first temporal feature."""

    WEEKDAY = "weekday"
    WEEKEND = "weekend"

    @classmethod
    def of(cls, timestamp: int, start_weekday: int = 0) -> "DayType":
        """Day type at a simulation timestamp."""
        return cls.WEEKEND if is_weekend(timestamp, start_weekday) \
            else cls.WEEKDAY


Key = Tuple[DayType, int]


@dataclass
class HourlyNormalSchedule:
    """(mu, sigma) per (day type, hour-of-day).

    A schedule is *complete* when all 48 cells are present; partial
    schedules are permitted during training but :meth:`validate`
    enforces completeness before a model ships into the XML.
    """

    cells: Dict[Key, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Hot-path cache, invalidated by :meth:`set`: ``params_at`` is
        # called once per replica per report sweep.
        self._slot_cache: Optional[Tuple[int, int, float, float]] = None

    @classmethod
    def constant(cls, mu: float, sigma: float) -> "HourlyNormalSchedule":
        """Schedule with the same parameters in every cell."""
        cells = {(daytype, hour): (mu, sigma)
                 for daytype in DayType for hour in HOURS}
        return cls(cells=cells)

    @classmethod
    def from_cells(cls, entries: Iterable[Tuple[DayType, int, float, float]]
                   ) -> "HourlyNormalSchedule":
        """Build from (daytype, hour, mu, sigma) tuples."""
        schedule = cls()
        for daytype, hour, mu, sigma in entries:
            schedule.set(daytype, hour, mu, sigma)
        return schedule

    def set(self, daytype: DayType, hour: int, mu: float,
            sigma: float) -> None:
        if hour not in range(24):
            raise ModelSpecError(f"hour must be 0-23, got {hour}")
        if sigma < 0:
            raise ModelSpecError(f"sigma must be >= 0, got {sigma}")
        self.cells[(daytype, hour)] = (float(mu), float(sigma))
        self._slot_cache = None

    def params(self, daytype: DayType, hour: int) -> Tuple[float, float]:
        """(mu, sigma) for a cell; raises when the cell is missing."""
        key = (daytype, hour % 24)
        try:
            return self.cells[key]
        except KeyError:
            raise ModelSpecError(
                f"schedule has no cell for {daytype.value} hour {hour}") \
                from None

    def params_at(self, timestamp: int,
                  start_weekday: int = 0) -> Tuple[float, float]:
        """(mu, sigma) at a simulation timestamp.

        Memoized per hour slot: every replica's report in a sweep asks
        for the same cell, so the day-type/hour derivation and the dict
        lookup are done once per simulated hour instead of per draw.
        """
        slot = timestamp // HOUR
        cached = self._slot_cache
        if cached is not None and cached[0] == slot \
                and cached[1] == start_weekday:
            return cached[2], cached[3]
        mu, sigma = self.params(DayType.of(timestamp, start_weekday),
                                (timestamp % (24 * HOUR)) // HOUR)
        self._slot_cache = (slot, start_weekday, mu, sigma)
        return mu, sigma

    def scaled(self, factor: float) -> "HourlyNormalSchedule":
        """Scale every cell's mu and sigma by ``factor``.

        Used to convert region-level rates to ring-level rates: the
        paper "scaled the values of the model parameters by the total
        number of tenant rings within that region" (§4.1.1).
        """
        if factor < 0:
            raise ModelSpecError(f"scale factor must be >= 0, got {factor}")
        return HourlyNormalSchedule(cells={
            key: (mu * factor, sigma * factor)
            for key, (mu, sigma) in self.cells.items()
        })

    @property
    def is_complete(self) -> bool:
        return len(self.cells) == 48

    def validate(self) -> None:
        """Raise unless all 48 (day type, hour) cells are present."""
        if not self.is_complete:
            missing = [(d.value, h) for d in DayType for h in HOURS
                       if (d, h) not in self.cells]
            raise ModelSpecError(
                f"schedule incomplete; missing {len(missing)} cells, "
                f"first: {missing[:3]}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HourlyNormalSchedule):
            return NotImplemented
        return self.cells == other.cells
