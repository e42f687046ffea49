"""Baseline disk-delta models the paper evaluated and rejected (§4.2.2).

"We explored several statistical approaches including non-parametric
kernel density estimations (KDE) and a customized binning model in
which the training set was divided into bins, each with a probability.
However [...] we decided to imitate the Delta Disk Usage by using a
'hourly normal' model."

Both baselines ignore the temporal (hour-of-day) structure — exactly
the deficiency the paper cites ("Unlike customized binning, it could
capture temporal disk usage patterns") — so the comparison harness can
show the hourly-normal model matching or beating them on DTW/RMSE
while being far cheaper to sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.core.hourly_schedule import HourlyNormalSchedule
from repro.stats.descriptive import rmse
from repro.stats.dtw import dtw_distance
from repro.units import DELTA_DISK_PERIOD, HOUR


class KdeDeltaModel:
    """Gaussian KDE over the pooled Delta Disk Usage values.

    A draw is scipy's ``gaussian_kde.resample(size=1, seed=rng)`` bit
    for bit, generator state included: one standard normal scaled by
    ``multivariate_normal``'s SVD factor of the kernel covariance, then
    one uniform picking a kernel centre through ``choice``'s CDF of the
    weights. ``resample`` rebuilds the factor and the CDF on every
    call, a cumulative sum over every training sample; they are built
    once here.
    """

    name = "kde"

    def __init__(self, deltas: Sequence[float]) -> None:
        data = np.asarray(deltas, dtype=float)
        if data.size < 5:
            raise TrainingError("KDE needs at least 5 samples")
        if float(data.std()) == 0.0:
            raise TrainingError("KDE undefined for zero-variance data")
        from scipy import stats as sps  # lazy: simulation runs skip it

        kde = sps.gaussian_kde(data)
        self._centres = kde.dataset[0]
        cdf = kde.weights.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        u, s, _ = np.linalg.svd(kde.covariance)
        self._scale = float((u * np.sqrt(s))[0, 0])

    def sample_delta(self, rng: np.random.Generator, timestamp: int) -> float:
        """Draw one delta; the timestamp is ignored (no temporal view)."""
        noise = 0.0 + rng.standard_normal() * self._scale
        index = self._cdf.searchsorted(rng.random(), side="right")
        return float(self._centres[index] + noise)


class BinnedDeltaModel:
    """The paper's "customized binning" baseline.

    The training set is divided into value bins; each bin carries its
    empirical probability and sampling draws a bin then a uniform value
    within it.
    """

    name = "binned"

    def __init__(self, deltas: Sequence[float], n_bins: int = 20) -> None:
        data = np.asarray(deltas, dtype=float)
        if data.size < n_bins:
            raise TrainingError(
                f"binning needs >= {n_bins} samples, got {data.size}")
        counts, edges = np.histogram(data, bins=n_bins)
        total = counts.sum()
        if total == 0:
            raise TrainingError("histogram is empty")
        self._probabilities = counts / total
        self._edges = edges

    def sample_delta(self, rng: np.random.Generator, timestamp: int) -> float:
        """Draw one delta; the timestamp is ignored (no temporal view)."""
        index = int(rng.choice(len(self._probabilities),
                               p=self._probabilities))
        return float(rng.uniform(self._edges[index], self._edges[index + 1]))


class HourlyNormalDeltaModel:
    """Adapter putting the paper's chosen model into the same interface."""

    name = "hourly-normal"

    def __init__(self, schedule: HourlyNormalSchedule,
                 start_weekday: int = 0) -> None:
        schedule.validate()
        self._schedule = schedule
        self._start_weekday = start_weekday

    def sample_delta(self, rng: np.random.Generator, timestamp: int) -> float:
        mu, sigma = self._schedule.params_at(timestamp, self._start_weekday)
        return float(rng.normal(mu, sigma)) if sigma > 0 else mu


@dataclass(frozen=True)
class ModelComparisonRow:
    """One model's scores in the §4.2.2 selection table."""

    model_name: str
    dtw: float
    rmse: float
    cumulative_growth_error: float


def _simulate_generic(model, days: int, runs: int,
                      rng: np.random.Generator) -> np.ndarray:
    periods = days * (24 * HOUR // DELTA_DISK_PERIOD)
    curves = np.empty((runs, periods + 1))
    curves[:, 0] = 0.0
    for run in range(runs):
        value = 0.0
        for period in range(periods):
            value += model.sample_delta(rng, period * DELTA_DISK_PERIOD)
            curves[run, period + 1] = value
    return curves


def compare_delta_models(production_mean_curve: np.ndarray,
                         models: List, days: int, runs: int,
                         rng: np.random.Generator) -> List[ModelComparisonRow]:
    """Score candidate delta models against a production mean curve.

    This reproduces the selection comparison behind §4.2.2: lower DTW
    and RMSE is better; the hourly-normal model should match or beat
    the a-temporal baselines.
    """
    rows: List[ModelComparisonRow] = []
    production = np.asarray(production_mean_curve, dtype=float)
    production_growth = float(production[-1] - production[0])
    for model in models:
        curves = _simulate_generic(model, days, runs, rng)
        mean_curve = curves.mean(axis=0)[:production.shape[0]]
        target = production[:mean_curve.shape[0]]
        growth = float(mean_curve[-1] - mean_curve[0])
        growth_error = (abs(growth - production_growth)
                        / abs(production_growth)
                        if production_growth else float("inf"))
        rows.append(ModelComparisonRow(
            model_name=model.name,
            dtw=dtw_distance(mean_curve, target, window=48),
            rmse=rmse(mean_curve, target),
            cumulative_growth_error=growth_error,
        ))
    return rows
