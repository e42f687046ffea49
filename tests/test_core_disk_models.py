"""Tests for the composite disk-usage model (§4.2)."""

import numpy as np
import pytest

from repro.errors import ModelSpecError
from repro.core.disk_models import (
    DiskUsageModel,
    InitialGrowthSpec,
    RapidGrowthSpec,
)
from repro.core.hourly_schedule import HourlyNormalSchedule
from repro.core.model_base import BinnedUniform, ModelContext
from repro.core.selectors import ALL_PREMIUM_BC
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.editions import GP_TEMPDB_BASELINE_GB
from repro.sqldb.slo import get_slo
from repro.units import DELTA_DISK_PERIOD, HOUR, MINUTE
from tests.conftest import make_flat_disk_model


def make_db(slo="BC_Gen5_4", created_at=0, data=100.0, **kwargs):
    return DatabaseInstance(db_id="db-7", slo=get_slo(slo),
                            created_at=created_at, initial_data_gb=data,
                            **kwargs)


def context(db, now=DELTA_DISK_PERIOD, prev=None,
            interval=DELTA_DISK_PERIOD, primary=True, seed=0):
    return ModelContext(now=now, interval_seconds=interval, database=db,
                        is_primary=primary, previous_value=prev,
                        rng=np.random.default_rng(seed))


class TestBinnedUniform:
    def test_from_sample_equiprobable_bins(self):
        bins = BinnedUniform.from_sample(list(range(100)), n_bins=5)
        assert len(bins.bins) == 5
        assert bins.bins[0][0] == 0.0
        assert bins.bins[-1][1] == 99.0

    def test_samples_within_support(self):
        bins = BinnedUniform.from_sample([10.0, 20.0, 30.0, 40.0])
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert 10.0 <= bins.sample(rng) <= 40.0

    def test_empty_rejected(self):
        with pytest.raises(ModelSpecError):
            BinnedUniform.from_sample([])

    def test_inverted_bin_rejected(self):
        with pytest.raises(ModelSpecError):
            BinnedUniform(bins=((5.0, 1.0),))

    def test_mean(self):
        bins = BinnedUniform(bins=((0.0, 2.0), (4.0, 6.0)))
        assert bins.mean() == pytest.approx(3.0)


class TestSpecs:
    def test_initial_probability_bounds(self):
        totals = BinnedUniform(bins=((10.0, 20.0),))
        with pytest.raises(ModelSpecError):
            InitialGrowthSpec(probability=1.5, totals=totals)

    def test_rapid_phase_cycle(self):
        spec = RapidGrowthSpec(
            probability=0.1, steady_duration=100, increase_duration=10,
            between_duration=50, decrease_duration=10,
            increase_totals=BinnedUniform(bins=((1.0, 2.0),)),
            decrease_totals=BinnedUniform(bins=((1.0, 2.0),)))
        assert spec.cycle_seconds == 170
        assert spec.phase_at(0) == "steady"
        assert spec.phase_at(105) == "increase"
        assert spec.phase_at(140) == "between"
        assert spec.phase_at(165) == "decrease"
        assert spec.phase_at(170) == "steady"  # wraps

    def test_rapid_durations_positive(self):
        bins = BinnedUniform(bins=((1.0, 2.0),))
        with pytest.raises(ModelSpecError):
            RapidGrowthSpec(probability=0.1, steady_duration=0,
                            increase_duration=1, between_duration=1,
                            decrease_duration=1, increase_totals=bins,
                            decrease_totals=bins)


class TestSteadyGrowth:
    def test_initial_value_is_local_disk(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.PREMIUM_BC)
        db = make_db(data=250.0)
        assert model.initial_value(context(db)) == 250.0

    def test_gp_initial_value_is_tempdb(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.STANDARD_GP)
        db = make_db(slo="GP_Gen5_4", data=250.0)
        assert model.initial_value(context(db)) == GP_TEMPDB_BASELINE_GB

    def test_none_previous_returns_initial(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.PREMIUM_BC, mu=5.0)
        db = make_db(data=100.0)
        assert model.next_value(context(db, prev=None)) == 100.0

    def test_constant_growth_applied(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.PREMIUM_BC, mu=2.0, sigma=0.0,
                                     rate_heterogeneity=0.0)
        db = make_db()
        value = model.next_value(context(db, prev=100.0))
        assert value == pytest.approx(102.0)

    def test_interval_scaling(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.PREMIUM_BC, mu=2.0,
                                     rate_heterogeneity=0.0)
        db = make_db()
        half = model.next_value(context(db, prev=100.0,
                                        interval=DELTA_DISK_PERIOD // 2))
        assert half == pytest.approx(101.0)

    def test_floor_enforced(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.PREMIUM_BC, mu=-50.0,
                                     rate_heterogeneity=0.0, floor_gb=1.0)
        db = make_db()
        assert model.next_value(context(db, prev=10.0)) == 1.0

    def test_slo_cap_enforced(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.PREMIUM_BC, mu=1e9,
                                     rate_heterogeneity=0.0)
        db = make_db(slo="BC_Gen5_2")
        value = model.next_value(context(db, prev=10.0))
        assert value == db.slo.max_data_gb

    def test_rate_heterogeneity_deterministic_per_db(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.PREMIUM_BC,
                                     rate_heterogeneity=0.8)
        assert model.rate_factor("db-1") == model.rate_factor("db-1")
        assert model.rate_factor("db-1") != model.rate_factor("db-2")

    def test_rate_heterogeneity_mean_near_one(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.PREMIUM_BC,
                                     rate_heterogeneity=0.8)
        factors = [model.rate_factor(f"db-{i}") for i in range(4000)]
        assert np.mean(factors) == pytest.approx(1.0, abs=0.1)

    def test_zero_heterogeneity_factor_one(self):
        from repro.sqldb.editions import Edition
        model = make_flat_disk_model(Edition.PREMIUM_BC,
                                     rate_heterogeneity=0.0)
        assert model.rate_factor("anything") == 1.0


class TestInitialCreationGrowth:
    def make_model(self, probability=1.0):
        from repro.sqldb.editions import Edition
        totals = BinnedUniform(bins=((120.0, 120.0),))
        return DiskUsageModel(
            selector=ALL_PREMIUM_BC,
            steady=HourlyNormalSchedule.constant(0.0, 0.0),
            initial_growth=InitialGrowthSpec(probability=probability,
                                             totals=totals),
            rate_heterogeneity=0.0)

    def test_growth_spread_over_window(self):
        model = self.make_model()
        db = make_db(data=100.0, high_initial_growth=True,
                     initial_growth_total_gb=120.0)
        # One 5-minute report interval delivers 120 * 5/30 = 20 GB.
        value = model.next_value(context(db, now=5 * MINUTE, prev=100.0,
                                         interval=5 * MINUTE))
        assert value == pytest.approx(120.0)

    def test_no_growth_after_window(self):
        model = self.make_model()
        db = make_db(data=100.0, high_initial_growth=True,
                     initial_growth_total_gb=120.0)
        value = model.next_value(context(db, now=2 * HOUR, prev=220.0))
        assert value == pytest.approx(220.0)

    def test_flag_gates_growth(self):
        model = self.make_model()
        db = make_db(data=100.0, high_initial_growth=False)
        value = model.next_value(context(db, now=5 * MINUTE, prev=100.0,
                                         interval=5 * MINUTE))
        assert value == pytest.approx(100.0)

    def test_sample_creation_flags_probability_one(self):
        model = self.make_model(probability=1.0)
        rng = np.random.default_rng(0)
        high, total, __ = model.sample_creation_flags(rng)
        assert high
        assert total == pytest.approx(120.0)

    def test_sample_creation_flags_probability_zero(self):
        model = self.make_model(probability=0.0)
        rng = np.random.default_rng(0)
        high, total, __ = model.sample_creation_flags(rng)
        assert not high
        assert total == 0.0

    def test_flag_sampling_consumes_fixed_draws(self):
        # Identical rng state afterwards regardless of outcome, so the
        # Population Manager's request sequence stays aligned (§5.2).
        model_yes = self.make_model(probability=1.0)
        model_no = self.make_model(probability=0.0)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        model_yes.sample_creation_flags(rng_a)
        model_no.sample_creation_flags(rng_b)
        assert rng_a.random() == rng_b.random()


class TestRapidGrowth:
    def make_model(self):
        spec = RapidGrowthSpec(
            probability=1.0,
            steady_duration=1 * HOUR,
            increase_duration=20 * MINUTE,
            between_duration=1 * HOUR,
            decrease_duration=20 * MINUTE,
            increase_totals=BinnedUniform(bins=((60.0, 60.0),)),
            decrease_totals=BinnedUniform(bins=((60.0, 60.0),)))
        return DiskUsageModel(
            selector=ALL_PREMIUM_BC,
            steady=HourlyNormalSchedule.constant(0.0, 0.0),
            rapid_growth=spec, rate_heterogeneity=0.0)

    def test_increase_phase_adds(self):
        model = self.make_model()
        db = make_db(rapid_growth=True)
        now = 1 * HOUR + 10 * MINUTE  # inside the increase phase
        value = model.next_value(context(db, now=now, prev=100.0,
                                         interval=10 * MINUTE))
        assert value == pytest.approx(130.0)  # 60 * 10/20

    def test_decrease_phase_subtracts(self):
        model = self.make_model()
        db = make_db(rapid_growth=True)
        now = (2 * HOUR + 20 * MINUTE) + 10 * MINUTE
        value = model.next_value(context(db, now=now, prev=200.0,
                                         interval=10 * MINUTE))
        assert value == pytest.approx(170.0)

    def test_steady_phase_unchanged(self):
        model = self.make_model()
        db = make_db(rapid_growth=True)
        value = model.next_value(context(db, now=30 * MINUTE, prev=100.0))
        assert value == pytest.approx(100.0)

    def test_flag_gates_rapid(self):
        model = self.make_model()
        db = make_db(rapid_growth=False)
        now = 1 * HOUR + 10 * MINUTE
        value = model.next_value(context(db, now=now, prev=100.0))
        assert value == pytest.approx(100.0)
