"""Synthetic production telemetry (the training corpus for §4).

The paper trains on two weeks of Azure telemetry we do not have; this
generator emits traces with the same reported structure so the
training pipeline (:mod:`repro.models`) runs unchanged:

* hourly create/drop event counts per edition over N days
  (Figures 6 and 8),
* per-database disk-usage time series at 20-minute granularity with
  the ~99.8% steady / ~0.2% special-pattern split (Figure 9 and
  §4.2.1),
* CPU/memory utilization snapshots of a region (Figure 3b),
* per-cluster daily local-store fractions (Figure 3a).

Every draw comes from the caller-provided seeded generator, so a trace
is a pure function of (profile, rng, horizon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.sqldb.editions import Edition
from repro.telemetry.region import RegionProfile
from repro.units import DAY, DELTA_DISK_PERIOD, HOUR

#: 20-minute periods per hour / per day.
PERIODS_PER_HOUR = HOUR // DELTA_DISK_PERIOD
PERIODS_PER_DAY = DAY // DELTA_DISK_PERIOD


@dataclass(frozen=True)
class HourlyEventTrace:
    """Hourly event counts over a horizon, with calendar features."""

    edition: Edition
    kind: str                      # "create" | "drop"
    counts: Tuple[int, ...]        # one entry per hour
    start_weekday: int = 0

    def __post_init__(self) -> None:
        if len(self.counts) % 24 != 0:
            raise TrainingError(
                f"trace length {len(self.counts)} is not whole days")

    @property
    def n_hours(self) -> int:
        return len(self.counts)

    @property
    def n_days(self) -> int:
        return self.n_hours // 24

    def hour_of_day(self, index: int) -> int:
        return index % 24

    def is_weekend(self, index: int) -> bool:
        weekday = (self.start_weekday + index // 24) % 7
        return weekday >= 5

    def hourly_samples(self) -> Dict[Tuple[bool, int], List[int]]:
        """Group counts by (is_weekend, hour): the training sets of §4.1.

        Each group feeds one of the paper's 96 hourly models.
        """
        groups: Dict[Tuple[bool, int], List[int]] = {}
        for index, count in enumerate(self.counts):
            key = (self.is_weekend(index), self.hour_of_day(index))
            groups.setdefault(key, []).append(int(count))
        return groups

    def daily_totals(self) -> List[int]:
        """Total events per day."""
        return [int(sum(self.counts[d * 24:(d + 1) * 24]))
                for d in range(self.n_days)]


@dataclass(frozen=True, eq=False)
class DiskUsageTrace:
    """One database's disk usage at 20-minute granularity.

    ``usage_gb`` accepts any float sequence and is held as a read-only
    float64 copy: a training corpus is 1,200 of these, and Python
    floats would box each of its ~1.2M samples.
    """

    db_index: int
    edition: Edition
    usage_gb: np.ndarray            # absolute usage per period
    pattern: str                    # "steady" | "initial" | "rapid"

    def __post_init__(self) -> None:
        usage = np.array(self.usage_gb, dtype=float)
        if usage.ndim != 1:
            raise TrainingError("disk usage must be one series")
        usage.flags.writeable = False
        object.__setattr__(self, "usage_gb", usage)

    def deltas(self) -> np.ndarray:
        """Delta Disk Usage between adjacent periods (§4.2.1)."""
        return np.diff(self.usage_gb)


@dataclass(frozen=True)
class UtilizationSample:
    """One database's average CPU/memory utilization (Figure 3b)."""

    cpu_percent: float
    memory_percent: float
    idle: bool


def _floored_cumsum(start: float, deltas: np.ndarray,
                    floor: float) -> np.ndarray:
    """The left fold ``u[p + 1] = max(u[p] + deltas[p], floor)``.

    ``np.add.accumulate`` adds strictly in order, so every stretch above
    the floor matches the scalar fold bit for bit; at the first sample
    below the floor the fold is clamped and restarted from there.
    """
    usage = np.empty(deltas.size + 1)
    usage[0] = start
    usage[1:] = deltas
    begin = 0
    while True:
        usage[begin:] = np.add.accumulate(usage[begin:])
        below = np.flatnonzero(usage[begin + 1:] < floor)
        if below.size == 0:
            return usage
        begin += 1 + int(below[0])
        usage[begin] = floor
        usage[begin + 1:] = deltas[begin:]


class ProductionTraceGenerator:
    """Emits the synthetic production corpus for one region."""

    def __init__(self, profile: RegionProfile,
                 rng: np.random.Generator) -> None:
        self.profile = profile
        self._rng = rng
        self._delta_mu_tables: Dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Create/drop event traces (Figures 6 and 8)
    # ------------------------------------------------------------------

    def event_trace(self, edition: Edition, kind: str, days: int = 14,
                    start_weekday: int = 0) -> HourlyEventTrace:
        """Hourly event counts for one edition and kind over ``days``."""
        if kind not in ("create", "drop"):
            raise TrainingError(f"kind must be create|drop, got '{kind}'")
        if days < 1:
            raise TrainingError("need at least one day")
        is_bc = edition is Edition.PREMIUM_BC
        counts: List[int] = []
        for day in range(days):
            weekend = (start_weekday + day) % 7 >= 5
            for hour in range(24):
                if kind == "create":
                    rate = self.profile.create_rate(is_bc, weekend, hour)
                else:
                    rate = self.profile.drop_rate(is_bc, weekend, hour)
                noisy = self._rng.normal(
                    rate, max(self.profile.count_noise * rate, 0.4))
                counts.append(max(0, int(round(noisy))))
        return HourlyEventTrace(edition=edition, kind=kind,
                                counts=tuple(counts),
                                start_weekday=start_weekday)

    def create_and_drop_traces(self, days: int = 14, start_weekday: int = 0
                               ) -> Dict[Tuple[Edition, str],
                                         HourlyEventTrace]:
        """All four (edition, kind) traces in one call."""
        traces = {}
        for edition in Edition:
            for kind in ("create", "drop"):
                traces[(edition, kind)] = self.event_trace(
                    edition, kind, days, start_weekday)
        return traces

    # ------------------------------------------------------------------
    # Disk usage traces (Figure 9, §4.2)
    # ------------------------------------------------------------------

    def disk_trace(self, db_index: int, edition: Edition, days: int = 14,
                   start_weekday: int = 0,
                   pattern: str = "steady") -> DiskUsageTrace:
        """One database's 20-minute disk-usage series."""
        profile = self.profile
        n_periods = days * PERIODS_PER_DAY
        if edition is Edition.PREMIUM_BC:
            start_gb = float(np.clip(
                self._rng.lognormal(profile.bc_start_log_mu,
                                    profile.bc_start_log_sigma),
                1.0, 2048.0))
            delta_scale = profile.bc_disk_delta_multiplier
        else:
            start_gb = float(np.clip(
                self._rng.lognormal(profile.gp_start_log_mu,
                                    profile.gp_start_log_sigma),
                0.5, 2048.0))
            delta_scale = 1.0

        rapid_cycle = None
        if pattern == "rapid":
            rapid_cycle = self._sample_rapid_cycle(edition)
        initial_total = 0.0
        if pattern == "initial":
            # A database crossing the 12 GB-in-5-minutes rule sustains a
            # high rate; 30-minute totals land well above the threshold.
            # Local-store restores pull full databases onto local SSD
            # and are far larger than remote-store tempdb warm-ups.
            if edition is Edition.PREMIUM_BC:
                log_mu = profile.bc_high_initial_log_mu
                log_sigma = profile.bc_high_initial_log_sigma
                cap = profile.bc_high_initial_cap_gb
            else:
                log_mu = profile.high_initial_log_mu
                log_sigma = profile.high_initial_log_sigma
                cap = profile.high_initial_cap_gb
            initial_total = float(np.clip(
                self._rng.lognormal(log_mu, log_sigma), 30.0, cap))

        # Restores are front-loaded: 60% of the growth lands in the
        # first 20-minute period, the rest in the second.
        initial_shares = (0.6, 0.4)
        periods = np.arange(n_periods)
        hours = (periods // PERIODS_PER_HOUR) % 24
        weekends = (start_weekday + periods // PERIODS_PER_DAY) % 7 >= 5
        mus = self._delta_mu_table(delta_scale)[weekends.astype(int), hours]
        # One array-loc draw advances the generator exactly as one
        # scalar normal() per period does (the BatchedStream rule).
        deltas = self._rng.normal(mus, profile.disk_delta_sigma * delta_scale)
        if pattern == "initial":
            for period, share in enumerate(initial_shares[:n_periods]):
                deltas[period] += initial_total * share
        if rapid_cycle is not None:
            deltas += [self._rapid_delta(rapid_cycle, period)
                       for period in range(n_periods)]
        usage = _floored_cumsum(start_gb, deltas, floor=0.1)
        return DiskUsageTrace(db_index=db_index, edition=edition,
                              usage_gb=usage, pattern=pattern)

    def _delta_mu_table(self, delta_scale: float) -> np.ndarray:
        """``disk_delta_mu(weekend, hour) * delta_scale`` as a 2x24 table.

        Built from the scalar profile method, so every entry is the
        float the per-period computation would produce.
        """
        table = self._delta_mu_tables.get(delta_scale)
        if table is None:
            table = np.array([
                [self.profile.disk_delta_mu(weekend, hour) * delta_scale
                 for hour in range(24)]
                for weekend in (False, True)])
            self._delta_mu_tables[delta_scale] = table
        return table

    def disk_corpus(self, n_databases: int = 400, days: int = 14,
                    start_weekday: int = 0,
                    min_per_edition: int = 80) -> List[DiskUsageTrace]:
        """A population of disk traces with the paper's pattern split.

        Pattern assignment follows §4.2.1: the overwhelming majority is
        steady-state; small subsets show initial-creation or
        predictable-rapid growth. Editions and patterns are stratified
        (quota per (edition, pattern), at least two of each special
        pattern) so a training corpus always exercises every §4.2
        sub-model; trace *content* remains fully random.
        """
        bc_count = max(int(round(n_databases
                                 * self.profile.local_store_fraction_mean)),
                       min(min_per_edition, n_databases // 2))
        gp_count = n_databases - bc_count
        traces: List[DiskUsageTrace] = []
        db_index = 0
        for edition, count in ((Edition.STANDARD_GP, gp_count),
                               (Edition.PREMIUM_BC, bc_count)):
            if edition is Edition.PREMIUM_BC:
                initial_probability = self.profile.bc_high_initial_probability
                rapid_probability = self.profile.bc_rapid_probability
            else:
                initial_probability = self.profile.high_initial_probability
                rapid_probability = self.profile.rapid_probability
            n_initial = max(int(round(count * initial_probability)), 2)
            n_rapid = max(int(round(count * rapid_probability)), 2)
            patterns = (["initial"] * n_initial + ["rapid"] * n_rapid
                        + ["steady"] * max(count - n_initial - n_rapid, 0))
            # Shuffle so special traces are not clustered at the front.
            self._rng.shuffle(patterns)
            for pattern in patterns[:count]:
                traces.append(self.disk_trace(db_index, edition, days,
                                              start_weekday, pattern))
                db_index += 1
        return traces

    def _sample_rapid_cycle(self, edition: Edition) -> Dict[str, float]:
        """Durations (in periods) and magnitude of one ETL-like cycle."""
        magnitude = self._rng.lognormal(self.profile.rapid_spike_log_mu,
                                        self.profile.rapid_spike_log_sigma)
        cap = 512.0
        if edition is Edition.PREMIUM_BC:
            magnitude *= self.profile.bc_rapid_magnitude_multiplier
            cap = 1024.0
        return {
            "steady": float(self._rng.integers(18, 48)),
            "increase": float(self._rng.integers(2, 5)),
            "between": float(self._rng.integers(9, 24)),
            "decrease": float(self._rng.integers(2, 5)),
            "magnitude": float(np.clip(magnitude, 2.0, cap)),
        }

    @staticmethod
    def _rapid_delta(cycle: Dict[str, float], period: int) -> float:
        total = (cycle["steady"] + cycle["increase"] + cycle["between"]
                 + cycle["decrease"])
        offset = period % total
        if offset < cycle["steady"]:
            return 0.0
        offset -= cycle["steady"]
        if offset < cycle["increase"]:
            return cycle["magnitude"] / cycle["increase"]
        offset -= cycle["increase"]
        if offset < cycle["between"]:
            return 0.0
        return -cycle["magnitude"] / cycle["decrease"]

    # ------------------------------------------------------------------
    # Utilization snapshot (Figure 3b)
    # ------------------------------------------------------------------

    def utilization_snapshot(self, n_databases: int = 2000
                             ) -> List[UtilizationSample]:
        """Average CPU/memory utilization of a region's databases."""
        profile = self.profile
        samples: List[UtilizationSample] = []
        for _ in range(n_databases):
            idle = bool(self._rng.random() < profile.idle_fraction)
            if idle:
                samples.append(UtilizationSample(0.0, 0.0, True))
                continue
            cpu = 100.0 * float(self._rng.beta(profile.cpu_util_alpha,
                                               profile.cpu_util_beta))
            memory = 100.0 * float(self._rng.beta(profile.mem_util_alpha,
                                                  profile.mem_util_beta))
            samples.append(UtilizationSample(cpu, memory, False))
        return samples

    # ------------------------------------------------------------------
    # Demographics (Figure 3a)
    # ------------------------------------------------------------------

    def local_store_fractions(self, days: int = 7
                              ) -> Dict[int, List[float]]:
        """Per-day local-store fraction per cluster of the region.

        Returns ``{day: [fraction per cluster]}``, the data behind one
        region's box plots in Figure 3a.
        """
        profile = self.profile
        base = np.clip(
            self._rng.normal(profile.local_store_fraction_mean,
                             profile.local_store_fraction_std,
                             size=profile.cluster_count),
            0.0, 1.0)
        result: Dict[int, List[float]] = {}
        for day in range(days):
            jitter = self._rng.normal(0.0, profile.local_store_daily_jitter,
                                      size=profile.cluster_count)
            result[day] = [float(np.clip(b + j, 0.0, 1.0))
                           for b, j in zip(base, jitter)]
        return result
