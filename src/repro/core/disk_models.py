"""Disk-usage models (paper §4.2).

One :class:`DiskUsageModel` composes the paper's three growth patterns:

* **Steady-State Growth** (§4.2.2) — an hourly-normal schedule over the
  20-minute Delta Disk Usage; applies to *all* databases the model
  selects.
* **Initial Creation Growth** (§4.2.3) — with a trained probability a
  new database grows by a binned-uniform total during its first 30
  minutes (restore-from-mdf / bulk load behaviour).
* **Predictable Rapid Growth** (§4.2.4) — with a trained probability a
  database follows a four-state machine (steady → rapid increase →
  steady between spikes → rapid decrease), e.g. an ETL pipeline that
  loads new data and ages old data out.

Whether a database exhibits the optional patterns is decided once at
creation time (:meth:`DiskUsageModel.sample_creation_flags`) and stored
as flags on the database, so the sequence of decisions is fixed by the
Population Manager's single seed (§5.2) and identical across density
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ModelSpecError
from repro.core.hourly_schedule import HourlyNormalSchedule
from repro.core.model_base import (
    BinnedUniform,
    ModelContext,
    ResourceModel,
)
from repro.core.selectors import DatabaseSelector
from repro.fabric.metrics import DISK_GB
from repro.units import DELTA_DISK_PERIOD, MINUTE

#: §4.2.3: databases growing more than 12 GB within the first five
#: minutes are labeled "High Initial Growth" during training.
HIGH_INITIAL_GROWTH_LABEL_GB = 12.0
#: §4.2.3: "This model assumes that the high growth period will last
#: for 30 minutes".
INITIAL_GROWTH_DURATION = 30 * MINUTE


@dataclass(frozen=True)
class InitialGrowthSpec:
    """Initial Creation Growth parameters.

    Attributes:
        probability: chance a new database exhibits the pattern.
        totals: binned-uniform distribution of the 30-minute total
            growth (GB).
        duration_seconds: length of the high-growth window.
    """

    probability: float
    totals: BinnedUniform
    duration_seconds: int = INITIAL_GROWTH_DURATION

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ModelSpecError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.duration_seconds <= 0:
            raise ModelSpecError("duration must be positive")


@dataclass(frozen=True)
class RapidGrowthSpec:
    """Predictable Rapid Growth state machine parameters.

    The four states execute in the paper's order; ``*_duration`` values
    are the trained average time in each state, and spike magnitudes
    come from equal-probability bins with uniform intra-bin draws.
    The decrease bins hold *positive* magnitudes; the model subtracts.
    """

    probability: float
    steady_duration: int
    increase_duration: int
    between_duration: int
    decrease_duration: int
    increase_totals: BinnedUniform
    decrease_totals: BinnedUniform

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ModelSpecError(
                f"probability must be in [0, 1], got {self.probability}")
        for name in ("steady_duration", "increase_duration",
                     "between_duration", "decrease_duration"):
            if getattr(self, name) <= 0:
                raise ModelSpecError(f"{name} must be positive")

    @property
    def cycle_seconds(self) -> int:
        """Length of one full steady/spike cycle."""
        return (self.steady_duration + self.increase_duration
                + self.between_duration + self.decrease_duration)

    def phase_at(self, seconds_since_creation: int) -> str:
        """State name at an age: steady | increase | between | decrease."""
        offset = seconds_since_creation % self.cycle_seconds
        if offset < self.steady_duration:
            return "steady"
        offset -= self.steady_duration
        if offset < self.increase_duration:
            return "increase"
        offset -= self.increase_duration
        if offset < self.between_duration:
            return "between"
        return "decrease"


class DiskUsageModel(ResourceModel):
    """The composite disk model executed inside RgManager.

    Args:
        selector: databases this model governs (the paper configures
            distinct models for Standard/GP and Premium/BC).
        steady: hourly-normal schedule of Delta Disk Usage per 20-minute
            period (GB).
        initial_growth: optional Initial Creation Growth spec.
        rapid_growth: optional Predictable Rapid Growth spec.
        persisted: True for local-store disk (survives failovers via the
            Naming Service), False for remote-store tempdb (§3.3.2).
        floor_gb: reported disk never falls below this.
        start_weekday: weekday of simulation time zero.
    """

    metric = DISK_GB

    def __init__(self, selector: DatabaseSelector,
                 steady: HourlyNormalSchedule,
                 initial_growth: Optional[InitialGrowthSpec] = None,
                 rapid_growth: Optional[RapidGrowthSpec] = None,
                 persisted: bool = True,
                 floor_gb: float = 0.5,
                 rate_heterogeneity: float = 0.8,
                 start_weekday: int = 0) -> None:
        steady.validate()
        if rate_heterogeneity < 0:
            raise ModelSpecError(
                f"rate_heterogeneity must be >= 0, got {rate_heterogeneity}")
        self.selector = selector
        self.steady = steady
        self.initial_growth = initial_growth
        self.rapid_growth = rapid_growth
        self.persisted = persisted
        self.floor_gb = floor_gb
        #: Sigma of the per-database lognormal growth-rate factor.
        #: Databases do not all grow at the aggregate trained rate:
        #: most barely grow while a few grow fast, which is what builds
        #: node-level disk imbalance. The factor is a pure function of
        #: the database id (mean 1.0, so the trained aggregate growth
        #: is preserved), keeping the model stateless per §3.3.1.
        self.rate_heterogeneity = rate_heterogeneity
        self.start_weekday = start_weekday
        self._rate_factor_cache: Dict[str, float] = {}

    def kind(self) -> str:
        return "DiskUsageModel"

    # -- creation-time decisions ----------------------------------------

    def sample_creation_flags(self, rng: np.random.Generator
                              ) -> Tuple[bool, float, bool]:
        """Decide a new database's growth patterns.

        Returns ``(high_initial_growth, initial_total_gb, rapid_growth)``.
        Draws are always consumed in the same order regardless of the
        outcome, so a fixed seed yields the same flag sequence even when
        admission outcomes differ between experiments.
        """
        initial_roll = float(rng.random())
        rapid_roll = float(rng.random())
        high_initial = False
        total = 0.0
        if self.initial_growth is not None:
            total_draw = self.initial_growth.totals.sample(rng)
            if initial_roll < self.initial_growth.probability:
                high_initial = True
                total = total_draw
        rapid = (self.rapid_growth is not None
                 and rapid_roll < self.rapid_growth.probability)
        return high_initial, total, rapid

    # -- ResourceModel ----------------------------------------------------

    def initial_value(self, context: ModelContext) -> float:
        """Starting disk for a replica with no history on this node."""
        return max(context.database.initial_local_disk_gb(), self.floor_gb)

    def next_value(self, context: ModelContext) -> float:
        """Previous value plus this interval's sampled growth.

        One frame on the report path: the steady-state draw, then the
        initial-growth window, then the rapid-growth spike draw, in
        that order on the node's stream.
        """
        previous = context.previous_value
        database = context.database
        if previous is None:
            return self.initial_value(context)
        now = context.now
        interval = context.interval_seconds
        rng = context.rng

        # Steady-State Growth (§4.2.2).
        mu, sigma = self.steady.params_at(now, self.start_weekday)
        factor = self._rate_factor_cache.get(database.db_id)
        if factor is None:
            factor = self.rate_factor(database.db_id)
        draw = float(rng.normal(mu, sigma)) if sigma > 0 else mu
        delta = draw * factor * (interval / DELTA_DISK_PERIOD)

        # Initial Creation Growth (§4.2.3).
        age = now - database.created_at
        initial = self.initial_growth
        if (database.high_initial_growth and initial is not None
                and age <= initial.duration_seconds):
            duration = initial.duration_seconds
            rate = database.initial_growth_total_gb / duration
            window = min(interval, max(duration - (age - interval), 0))
            delta += rate * window

        # Predictable Rapid Growth (§4.2.4).
        rapid = self.rapid_growth
        if database.rapid_growth and rapid is not None:
            phase = rapid.phase_at(age)
            spike = 0.0
            if phase == "increase":
                total = rapid.increase_totals.sample(rng)
                spike = total * interval / rapid.increase_duration
            elif phase == "decrease":
                total = rapid.decrease_totals.sample(rng)
                spike = -total * interval / rapid.decrease_duration
            delta += spike

        value = previous + delta
        return float(min(max(value, self.floor_gb),
                         database.slo.max_data_gb))

    def rate_factor(self, db_id: str) -> float:
        """Per-database growth-rate multiplier (deterministic, mean 1)."""
        if self.rate_heterogeneity == 0:
            return 1.0
        factor = self._rate_factor_cache.get(db_id)
        if factor is None:
            acc = 0x811C9DC5
            for byte in db_id.encode("utf-8"):
                acc = ((acc ^ byte) * 0x01000193) & 0xFFFFFFFF
            uniform = (acc + 0.5) / 2 ** 32
            z = NormalDist().inv_cdf(uniform)
            sigma = self.rate_heterogeneity
            # exp(sigma * z - sigma^2 / 2) has mean exactly 1.
            factor = math.exp(sigma * z - 0.5 * sigma * sigma)
            self._rate_factor_cache[db_id] = factor
        return factor
