"""Model validation (paper §4.1.4 and Figures 8-9).

"To validate the trained models, they were executed in a simulated
environment 100 times [...] Our 'hourly normal' model was able to
imitate the create and drop production trace closely."

:func:`validate_create_drop` reproduces Figure 8's three panels (net
creates, creates, drops) as numeric series; :func:`validate_disk_model`
reproduces Figure 9's cumulative disk comparison with the DTW and RMSE
scores the paper used for model selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.core.create_drop import CreateDropModel
from repro.core.hourly_schedule import DayType, HourlyNormalSchedule
from repro.stats.descriptive import rmse
from repro.stats.dtw import dtw_distance
from repro.telemetry.production import HourlyEventTrace
from repro.units import DELTA_DISK_PERIOD, HOUR


# ---------------------------------------------------------------------------
# Create / Drop validation (Figure 8)
# ---------------------------------------------------------------------------

def simulate_event_counts(model: CreateDropModel, kind: str, days: int,
                          runs: int, rng: np.random.Generator,
                          start_weekday: int = 0) -> np.ndarray:
    """Sample hourly counts: shape ``(runs, days * 24)``."""
    if kind not in ("create", "drop"):
        raise TrainingError(f"kind must be create|drop, got '{kind}'")
    counts = np.zeros((runs, days * 24), dtype=float)
    for run in range(runs):
        for day in range(days):
            daytype = (DayType.WEEKEND if (start_weekday + day) % 7 >= 5
                       else DayType.WEEKDAY)
            for hour in range(24):
                if kind == "create":
                    value = model.sample_creates(daytype, hour, rng)
                else:
                    value = model.sample_drops(daytype, hour, rng)
                counts[run, day * 24 + hour] = value
    return counts


@dataclass(frozen=True)
class CreateDropValidation:
    """Figure 8's series for one edition."""

    production_creates: np.ndarray     # hourly
    production_drops: np.ndarray
    simulated_creates: np.ndarray      # (runs, hours)
    simulated_drops: np.ndarray

    @property
    def production_net(self) -> np.ndarray:
        return self.production_creates - self.production_drops

    @property
    def mean_creates(self) -> np.ndarray:
        return self.simulated_creates.mean(axis=0)

    @property
    def mean_drops(self) -> np.ndarray:
        return self.simulated_drops.mean(axis=0)

    @property
    def mean_net(self) -> np.ndarray:
        return self.mean_creates - self.mean_drops

    def creates_rmse(self) -> float:
        """RMSE between mean simulated and production creates."""
        return rmse(self.mean_creates, self.production_creates)

    def drops_rmse(self) -> float:
        return rmse(self.mean_drops, self.production_drops)

    def net_rmse(self) -> float:
        return rmse(self.mean_net, self.production_net)

    def relative_daily_error(self) -> float:
        """|mean simulated - production| of total events, relative.

        The paper's headline claim is that the mean of 100 modeled
        curves "nearly overlapped with the production curve"; this is
        the corresponding scalar.
        """
        production_total = float(self.production_creates.sum())
        if production_total == 0:
            raise TrainingError("production trace has no creates")
        simulated_total = float(self.mean_creates.sum())
        return abs(simulated_total - production_total) / production_total


def validate_create_drop(model: CreateDropModel,
                         create_trace: HourlyEventTrace,
                         drop_trace: HourlyEventTrace,
                         runs: int = 100,
                         rng: np.random.Generator = None
                         ) -> CreateDropValidation:
    """Run the paper's 100-simulation validation for one edition."""
    if rng is None:
        rng = np.random.default_rng(0)
    days = create_trace.n_days
    return CreateDropValidation(
        production_creates=np.asarray(create_trace.counts, dtype=float),
        production_drops=np.asarray(drop_trace.counts, dtype=float),
        simulated_creates=simulate_event_counts(
            model, "create", days, runs, rng, create_trace.start_weekday),
        simulated_drops=simulate_event_counts(
            model, "drop", days, runs, rng, drop_trace.start_weekday),
    )


# ---------------------------------------------------------------------------
# Disk validation (Figure 9)
# ---------------------------------------------------------------------------

def simulate_steady_disk(schedule: HourlyNormalSchedule, days: int,
                         start_gb: float, runs: int,
                         rng: np.random.Generator,
                         start_weekday: int = 0) -> np.ndarray:
    """Cumulative disk usage curves from the steady model.

    Shape ``(runs, periods + 1)`` at 20-minute granularity.
    """
    periods = days * (24 * HOUR // DELTA_DISK_PERIOD)
    curves = np.empty((runs, periods + 1))
    curves[:, 0] = start_gb
    for run in range(runs):
        value = start_gb
        for period in range(periods):
            timestamp = period * DELTA_DISK_PERIOD
            mu, sigma = schedule.params_at(timestamp, start_weekday)
            delta = float(rng.normal(mu, sigma)) if sigma > 0 else mu
            value = max(value + delta, 0.1)
            curves[run, period + 1] = value
    return curves


@dataclass(frozen=True)
class DiskValidation:
    """Figure 9's comparison for one edition."""

    production_mean_curve: np.ndarray
    simulated_curves: np.ndarray

    @property
    def simulated_mean_curve(self) -> np.ndarray:
        return self.simulated_curves.mean(axis=0)

    def dtw(self) -> float:
        """DTW between mean curves (the §4.2.2 selection metric)."""
        return dtw_distance(self.simulated_mean_curve,
                            self.production_mean_curve,
                            window=48)

    def rmse(self) -> float:
        return rmse(self.simulated_mean_curve, self.production_mean_curve)

    def cumulative_growth_error(self) -> float:
        """Relative error of total growth over the horizon.

        The paper "primarily aimed to have the resulting cumulative
        disk usage from our models to be as close to production as
        possible over the two week training period".
        """
        production_growth = float(self.production_mean_curve[-1]
                                  - self.production_mean_curve[0])
        simulated_growth = float(self.simulated_mean_curve[-1]
                                 - self.simulated_mean_curve[0])
        if production_growth == 0:
            raise TrainingError("production curve shows no growth")
        return abs(simulated_growth - production_growth) / abs(production_growth)


def validate_disk_model(schedule: HourlyNormalSchedule,
                        steady_usage: np.ndarray,
                        days: int, runs: int = 50,
                        rng: np.random.Generator = None,
                        start_weekday: int = 0) -> DiskValidation:
    """Compare the steady model against production steady traces.

    ``steady_usage`` holds one row of absolute usage per steady-labeled
    database (:attr:`DiskUsageTrace.usage_gb`), all of one length.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    production = np.asarray(steady_usage, dtype=float)
    if production.ndim != 2 or production.shape[0] == 0:
        raise TrainingError("no steady traces to validate against")
    # Compare growth shapes: re-base every curve at its own start.
    production_rebased = production - production[:, :1]
    mean_curve = production_rebased.mean(axis=0)

    start_gb = 0.0
    simulated = simulate_steady_disk(schedule, days, start_gb, runs, rng,
                                     start_weekday)
    periods = min(simulated.shape[1], mean_curve.shape[0])
    return DiskValidation(
        production_mean_curve=mean_curve[:periods],
        simulated_curves=simulated[:, :periods],
    )
