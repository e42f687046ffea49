"""Tests for the §4 validation harness and baselines."""

import numpy as np
import pytest

from repro.core.hourly_schedule import HourlyNormalSchedule
from repro.errors import TrainingError
from repro.models.baselines import (
    BinnedDeltaModel,
    HourlyNormalDeltaModel,
    KdeDeltaModel,
    compare_delta_models,
)
from repro.models.training import train_create_drop_model
from repro.models.validation import (
    simulate_event_counts,
    simulate_steady_disk,
    validate_create_drop,
    validate_disk_model,
)
from repro.sqldb.editions import Edition
from repro.telemetry.production import ProductionTraceGenerator
from repro.telemetry.region import US_EAST_LIKE


@pytest.fixture(scope="module")
def generator():
    return ProductionTraceGenerator(US_EAST_LIKE, np.random.default_rng(9))


@pytest.fixture(scope="module")
def gp_model(generator):
    create = generator.event_trace(Edition.STANDARD_GP, "create", days=14)
    drop = generator.event_trace(Edition.STANDARD_GP, "drop", days=14)
    return train_create_drop_model(create, drop), create, drop


class TestEventSimulation:
    def test_shape(self, gp_model):
        model, __, __ = gp_model
        counts = simulate_event_counts(model, "create", days=3, runs=10,
                                       rng=np.random.default_rng(0))
        assert counts.shape == (10, 72)

    def test_nonnegative(self, gp_model):
        model, __, __ = gp_model
        counts = simulate_event_counts(model, "drop", days=2, runs=5,
                                       rng=np.random.default_rng(0))
        assert (counts >= 0).all()

    def test_bad_kind(self, gp_model):
        model, __, __ = gp_model
        with pytest.raises(TrainingError):
            simulate_event_counts(model, "explode", 1, 1,
                                  np.random.default_rng(0))


class TestCreateDropValidation:
    def test_mean_curve_tracks_production(self, gp_model):
        """Figure 8's headline: the mean of 100 modeled curves nearly
        overlaps the production curve."""
        model, create, drop = gp_model
        validation = validate_create_drop(model, create, drop, runs=100,
                                          rng=np.random.default_rng(1))
        assert validation.relative_daily_error() < 0.05

    def test_rmse_below_production_variability(self, gp_model):
        model, create, drop = gp_model
        validation = validate_create_drop(model, create, drop, runs=100,
                                          rng=np.random.default_rng(1))
        production_std = float(np.std(validation.production_creates))
        assert validation.creates_rmse() < production_std

    def test_net_series_consistency(self, gp_model):
        model, create, drop = gp_model
        validation = validate_create_drop(model, create, drop, runs=20,
                                          rng=np.random.default_rng(1))
        assert np.allclose(validation.mean_net,
                           validation.mean_creates - validation.mean_drops)


class TestDiskValidation:
    def test_simulated_curves_shape(self):
        schedule = HourlyNormalSchedule.constant(0.05, 0.01)
        curves = simulate_steady_disk(schedule, days=1, start_gb=10.0,
                                      runs=4, rng=np.random.default_rng(0))
        assert curves.shape == (4, 73)
        assert (curves[:, 0] == 10.0).all()

    def test_growth_matches_schedule(self):
        schedule = HourlyNormalSchedule.constant(0.1, 0.0)
        curves = simulate_steady_disk(schedule, days=1, start_gb=0.1,
                                      runs=1, rng=np.random.default_rng(0))
        assert curves[0, -1] == pytest.approx(0.1 + 72 * 0.1)

    def test_validation_against_steady_traces(self, generator):
        traces = [generator.disk_trace(i, Edition.STANDARD_GP, days=7,
                                       pattern="steady")
                  for i in range(30)]
        from repro.models.delta_disk import build_delta_disk_dataset
        from repro.models.training import train_disk_usage_model
        from repro.core.selectors import ALL_STANDARD_GP
        dataset = build_delta_disk_dataset(traces)
        model = train_disk_usage_model(dataset, ALL_STANDARD_GP,
                                       persisted=False)
        validation = validate_disk_model(
            model.steady, np.stack([t.usage_gb for t in traces]), days=7,
            runs=20, rng=np.random.default_rng(2))
        assert validation.cumulative_growth_error() < 0.25
        assert validation.rmse() < 1.0

    def test_empty_traces_rejected(self):
        schedule = HourlyNormalSchedule.constant(0.0, 0.0)
        with pytest.raises(TrainingError):
            validate_disk_model(schedule, [], days=1)


class TestBaselines:
    @pytest.fixture(scope="class")
    def deltas(self, generator):
        traces = [generator.disk_trace(i, Edition.STANDARD_GP, days=7,
                                       pattern="steady")
                  for i in range(20)]
        return np.concatenate([t.deltas() for t in traces])

    def test_kde_samples_plausible(self, deltas):
        model = KdeDeltaModel(deltas)
        rng = np.random.default_rng(0)
        draws = [model.sample_delta(rng, 0) for _ in range(300)]
        assert np.mean(draws) == pytest.approx(np.mean(deltas), abs=0.02)

    def test_kde_draws_match_scipy_resample(self, deltas):
        """Each draw, and the generator state after them, is what
        ``gaussian_kde.resample(size=1, seed=rng)`` gives."""
        from scipy import stats as sps
        model = KdeDeltaModel(deltas)
        reference = sps.gaussian_kde(deltas)
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        draws = [model.sample_delta(ours, 0) for _ in range(300)]
        expected = [float(reference.resample(size=1, seed=theirs)[0, 0])
                    for _ in range(300)]
        assert draws == expected
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_kde_needs_variance(self):
        with pytest.raises(TrainingError):
            KdeDeltaModel([1.0] * 10)

    def test_binned_samples_within_range(self, deltas):
        model = BinnedDeltaModel(deltas)
        rng = np.random.default_rng(0)
        for _ in range(100):
            draw = model.sample_delta(rng, 0)
            assert deltas.min() <= draw <= deltas.max()

    def test_binned_needs_enough_samples(self):
        with pytest.raises(TrainingError):
            BinnedDeltaModel([1.0, 2.0], n_bins=20)

    def test_hourly_normal_adapter(self):
        schedule = HourlyNormalSchedule.constant(0.5, 0.0)
        model = HourlyNormalDeltaModel(schedule)
        assert model.sample_delta(np.random.default_rng(0), 0) == 0.5

    def test_comparison_scores_all_models(self, deltas):
        production = np.cumsum(np.concatenate([[0.0], deltas[:72]]))
        models = [BinnedDeltaModel(deltas),
                  HourlyNormalDeltaModel(
                      HourlyNormalSchedule.constant(
                          float(np.mean(deltas)), float(np.std(deltas))))]
        rows = compare_delta_models(production, models, days=1, runs=5,
                                    rng=np.random.default_rng(3))
        assert {row.model_name for row in rows} == \
            {"binned", "hourly-normal"}
        for row in rows:
            assert row.dtw >= 0 and row.rmse >= 0
