"""Tests for the synthetic production-trace generator."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.sqldb.editions import Edition
from repro.telemetry.production import (
    PERIODS_PER_DAY,
    ProductionTraceGenerator,
    _floored_cumsum,
)
from repro.telemetry.region import EU_WEST_LIKE, US_EAST_LIKE


@pytest.fixture
def generator():
    return ProductionTraceGenerator(US_EAST_LIKE,
                                    np.random.default_rng(100))


class TestEventTraces:
    def test_length_matches_days(self, generator):
        trace = generator.event_trace(Edition.STANDARD_GP, "create", days=5)
        assert trace.n_hours == 120
        assert trace.n_days == 5

    def test_counts_nonnegative(self, generator):
        trace = generator.event_trace(Edition.PREMIUM_BC, "drop", days=14)
        assert all(count >= 0 for count in trace.counts)

    def test_business_hours_peak(self, generator):
        trace = generator.event_trace(Edition.STANDARD_GP, "create",
                                      days=14)
        groups = trace.hourly_samples()
        weekday_peak = np.mean(groups[(False, 13)])
        weekday_night = np.mean(groups[(False, 3)])
        assert weekday_peak > 2 * weekday_night

    def test_weekend_damped(self, generator):
        trace = generator.event_trace(Edition.STANDARD_GP, "create",
                                      days=14)
        groups = trace.hourly_samples()
        assert np.mean(groups[(True, 13)]) < np.mean(groups[(False, 13)])

    def test_bc_much_rarer_than_gp(self, generator):
        gp = generator.event_trace(Edition.STANDARD_GP, "create", days=14)
        bc = generator.event_trace(Edition.PREMIUM_BC, "create", days=14)
        assert sum(bc.counts) < 0.3 * sum(gp.counts)

    def test_bad_kind_rejected(self, generator):
        with pytest.raises(TrainingError):
            generator.event_trace(Edition.STANDARD_GP, "modify")

    def test_bad_days_rejected(self, generator):
        with pytest.raises(TrainingError):
            generator.event_trace(Edition.STANDARD_GP, "create", days=0)

    def test_all_four_traces(self, generator):
        traces = generator.create_and_drop_traces(days=3)
        assert len(traces) == 4

    def test_daily_totals(self, generator):
        trace = generator.event_trace(Edition.STANDARD_GP, "create", days=3)
        totals = trace.daily_totals()
        assert len(totals) == 3
        assert sum(totals) == sum(trace.counts)

    def test_deterministic_per_seed(self):
        a = ProductionTraceGenerator(
            US_EAST_LIKE, np.random.default_rng(5)).event_trace(
                Edition.STANDARD_GP, "create", days=3)
        b = ProductionTraceGenerator(
            US_EAST_LIKE, np.random.default_rng(5)).event_trace(
                Edition.STANDARD_GP, "create", days=3)
        assert a.counts == b.counts


class TestDiskTraces:
    def test_trace_length(self, generator):
        trace = generator.disk_trace(0, Edition.STANDARD_GP, days=2)
        assert len(trace.usage_gb) == 2 * PERIODS_PER_DAY + 1

    def test_usage_positive(self, generator):
        trace = generator.disk_trace(0, Edition.PREMIUM_BC, days=7)
        assert min(trace.usage_gb) > 0

    def test_initial_pattern_front_loaded(self, generator):
        trace = generator.disk_trace(0, Edition.PREMIUM_BC, days=2,
                                     pattern="initial")
        deltas = trace.deltas()
        assert deltas[0] > 12.0  # clears the labeling threshold

    def test_rapid_pattern_has_spikes_both_ways(self, generator):
        trace = generator.disk_trace(0, Edition.PREMIUM_BC, days=7,
                                     pattern="rapid")
        deltas = trace.deltas()
        assert deltas.max() > 1.0
        assert deltas.min() < -1.0

    def test_steady_pattern_small_deltas(self, generator):
        trace = generator.disk_trace(0, Edition.STANDARD_GP, days=7,
                                     pattern="steady")
        assert np.abs(trace.deltas()).max() < 1.0

    def test_bc_starts_bigger_than_gp(self):
        rng = np.random.default_rng(0)
        generator = ProductionTraceGenerator(US_EAST_LIKE, rng)
        gp_starts = [generator.disk_trace(i, Edition.STANDARD_GP,
                                          days=1).usage_gb[0]
                     for i in range(40)]
        bc_starts = [generator.disk_trace(i, Edition.PREMIUM_BC,
                                          days=1).usage_gb[0]
                     for i in range(40)]
        assert np.median(bc_starts) > 2 * np.median(gp_starts)

    def test_floored_cumsum_matches_the_scalar_fold(self):
        """Bit-equal to ``u[p + 1] = max(u[p] + d[p], 0.1)``, also
        through many clamps at the floor."""
        rng = np.random.default_rng(3)
        for drift, min_clamps in ((0.05, 0), (-0.05, 10), (-0.5, 100)):
            deltas = rng.normal(drift, 0.4, size=500)
            expected = [1.0]
            for delta in deltas:
                expected.append(max(expected[-1] + float(delta), 0.1))
            assert expected.count(0.1) >= min_clamps
            assert _floored_cumsum(1.0, deltas, 0.1).tolist() == expected

    def test_corpus_pattern_split(self, generator):
        corpus = generator.disk_corpus(n_databases=300, days=2)
        assert len(corpus) == 300
        patterns = {"steady": 0, "initial": 0, "rapid": 0}
        for trace in corpus:
            patterns[trace.pattern] += 1
        assert patterns["steady"] > 0.8 * 300
        assert patterns["initial"] >= 2
        assert patterns["rapid"] >= 2

    def test_corpus_has_both_editions(self, generator):
        corpus = generator.disk_corpus(n_databases=200, days=1)
        editions = {trace.edition for trace in corpus}
        assert editions == {Edition.STANDARD_GP, Edition.PREMIUM_BC}


class TestUtilizationAndDemographics:
    def test_idle_share(self, generator):
        samples = generator.utilization_snapshot(2000)
        idle = sum(1 for sample in samples if sample.idle)
        assert 0.25 < idle / 2000 < 0.45

    def test_low_utilization_dominates(self, generator):
        samples = [s for s in generator.utilization_snapshot(2000)
                   if not s.idle]
        cpu = np.array([s.cpu_percent for s in samples])
        assert np.median(cpu) < 25.0

    def test_utilization_in_range(self, generator):
        for sample in generator.utilization_snapshot(500):
            assert 0.0 <= sample.cpu_percent <= 100.0
            assert 0.0 <= sample.memory_percent <= 100.0

    def test_local_store_fractions_region_gap(self):
        rng = np.random.default_rng(3)
        low = ProductionTraceGenerator(US_EAST_LIKE, rng)
        high = ProductionTraceGenerator(EU_WEST_LIKE, rng)
        low_values = [v for vs in low.local_store_fractions(7).values()
                      for v in vs]
        high_values = [v for vs in high.local_store_fractions(7).values()
                       for v in vs]
        assert np.mean(high_values) > np.mean(low_values) + 0.05

    def test_local_store_fraction_shape(self, generator):
        per_day = generator.local_store_fractions(days=5)
        assert len(per_day) == 5
        for values in per_day.values():
            assert len(values) == US_EAST_LIKE.cluster_count
            assert all(0.0 <= value <= 1.0 for value in values)
