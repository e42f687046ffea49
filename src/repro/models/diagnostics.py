"""Training-quality diagnostics for hourly-normal schedules.

The paper's modelers eyeballed Figures 6-9 to decide the trained
models were trustworthy; this module turns those eyeball checks into
numbers a pipeline can gate on:

* per-cell sample counts (a weekend cell trained on two Saturdays is
  weaker than a weekday cell trained on ten weekdays);
* *diurnal strength* — how much of the weekday profile's variance is
  structure rather than noise (Figure 6's visible hourly pattern);
* *weekday/weekend contrast* — the §4.1.2 finding that weekdays are
  busier;
* flagged cells whose fitted sigma dwarfs mu (count cells where the
  normal would frequently truncate at zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.hourly_schedule import DayType, HourlyNormalSchedule
from repro.errors import TrainingError
from repro.models.hourly import HourlyTrainingSets


@dataclass(frozen=True)
class CellDiagnostic:
    """One (day type, hour) cell's training health."""

    daytype: DayType
    hour: int
    sample_count: int
    mu: float
    sigma: float

    @property
    def noisy(self) -> bool:
        """Sigma exceeding |mu|: samples would truncate at zero often."""
        return self.sigma > abs(self.mu) and self.mu >= 0


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Aggregate training-quality report for one schedule."""

    cells: Tuple[CellDiagnostic, ...]
    diurnal_strength: float
    weekday_weekend_contrast: float
    min_sample_count: int
    noisy_cell_count: int

    def healthy(self, min_samples: int = 3,
                min_diurnal_strength: float = 0.2) -> bool:
        """The gate a training pipeline would apply before shipping."""
        return (self.min_sample_count >= min_samples
                and self.diurnal_strength >= min_diurnal_strength)

    def summary(self) -> str:
        return (f"cells={len(self.cells)}  "
                f"min-samples={self.min_sample_count}  "
                f"diurnal={self.diurnal_strength:.2f}  "
                f"wd/we-contrast={self.weekday_weekend_contrast:.2f}  "
                f"noisy-cells={self.noisy_cell_count}")


def diurnal_strength(profile: np.ndarray) -> float:
    """Share of a 24-hour profile's energy in its structure.

    1 - (variance of hour-to-hour noise) / (variance of the profile).
    A flat profile scores 0; a smooth business-hours bump scores near 1.
    Estimated by comparing the profile against its 3-hour moving
    average: what survives smoothing is structure.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.size != 24:
        raise TrainingError(f"need a 24-hour profile, got {profile.size}")
    total_var = float(profile.var())
    if total_var == 0:
        return 0.0
    padded = np.concatenate([profile[-1:], profile, profile[:1]])
    smooth = np.convolve(padded, np.ones(3) / 3.0, mode="valid")
    noise_var = float(np.var(profile - smooth))
    return max(0.0, 1.0 - noise_var / total_var)


def diagnose_schedule(schedule: HourlyNormalSchedule,
                      training_sets: HourlyTrainingSets
                      ) -> ScheduleDiagnostics:
    """Produce the full diagnostic report for a trained schedule."""
    schedule.validate()
    cells: List[CellDiagnostic] = []
    for daytype in DayType:
        for hour in range(24):
            mu, sigma = schedule.params(daytype, hour)
            samples = training_sets.groups.get((daytype, hour), [])
            cells.append(CellDiagnostic(daytype=daytype, hour=hour,
                                        sample_count=len(samples),
                                        mu=mu, sigma=sigma))

    weekday_profile = np.array(
        [schedule.params(DayType.WEEKDAY, hour)[0] for hour in range(24)])
    weekend_profile = np.array(
        [schedule.params(DayType.WEEKEND, hour)[0] for hour in range(24)])
    weekend_mean = float(weekend_profile.mean())
    contrast = (float(weekday_profile.mean()) / weekend_mean
                if weekend_mean > 0 else float("inf"))

    return ScheduleDiagnostics(
        cells=tuple(cells),
        diurnal_strength=diurnal_strength(weekday_profile),
        weekday_weekend_contrast=contrast,
        min_sample_count=min(cell.sample_count for cell in cells),
        noisy_cell_count=sum(1 for cell in cells if cell.noisy),
    )


def diagnose_trace(trace) -> ScheduleDiagnostics:
    """Convenience: fit + diagnose in one step from an event trace."""
    sets = HourlyTrainingSets.from_trace(trace)
    schedule = sets.fit_schedule()
    if not schedule.is_complete:
        # Short traces leave weekend cells empty; borrow the weekday
        # fallback the trainer uses so diagnostics still run.
        from repro.models.training import _fill_missing_cells
        _fill_missing_cells(schedule)
    return diagnose_schedule(schedule, sets)
