"""Tests for create/drop, memory, and CPU models plus the model set."""

import numpy as np
import pytest

from repro.errors import ModelSpecError
from repro.core.cpu_model import CPU_USED_CORES, CpuUsageModel
from repro.core.create_drop import CreateDropModel
from repro.core.hourly_schedule import DayType, HourlyNormalSchedule
from repro.core.memory_model import MemoryUsageModel
from repro.core.model_base import ModelContext, TotoModelSet
from repro.core.selectors import ALL_DATABASES, ALL_PREMIUM_BC
from repro.fabric.metrics import DISK_GB, MEMORY_GB
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.editions import COLD_BUFFER_POOL_GB, Edition
from repro.sqldb.slo import get_slo
from repro.units import HOUR
from tests.conftest import make_flat_disk_model


def make_db(slo="BC_Gen5_4"):
    return DatabaseInstance(db_id="db-1", slo=get_slo(slo), created_at=0,
                            initial_data_gb=50.0)


def context(db, now=0, prev=None, interval=300, primary=True, seed=0):
    return ModelContext(now=now, interval_seconds=interval, database=db,
                        is_primary=primary, previous_value=prev,
                        rng=np.random.default_rng(seed))


class TestCreateDropModel:
    def make_model(self, create_mu=4.0, drop_mu=2.0, sigma=0.0):
        return CreateDropModel(
            edition=Edition.STANDARD_GP,
            creates=HourlyNormalSchedule.constant(create_mu, sigma),
            drops=HourlyNormalSchedule.constant(drop_mu, sigma))

    def test_deterministic_when_sigma_zero(self):
        model = self.make_model()
        rng = np.random.default_rng(0)
        assert model.sample_creates(DayType.WEEKDAY, 10, rng) == 4
        assert model.sample_drops(DayType.WEEKDAY, 10, rng) == 2

    def test_never_negative(self):
        model = self.make_model(create_mu=-5.0)
        rng = np.random.default_rng(0)
        assert model.sample_creates(DayType.WEEKDAY, 0, rng) == 0

    def test_rounding(self):
        model = self.make_model(create_mu=2.6)
        rng = np.random.default_rng(0)
        assert model.sample_creates(DayType.WEEKEND, 5, rng) == 3

    def test_expected_net_per_day(self):
        model = self.make_model(create_mu=4.0, drop_mu=2.0)
        assert model.expected_net_per_day(DayType.WEEKDAY) == \
            pytest.approx(48.0)

    def test_ring_scaling(self):
        model = self.make_model(create_mu=30.0).scaled_to_ring(15)
        assert model.expected_creates(DayType.WEEKDAY, 0) == \
            pytest.approx(2.0)

    def test_bad_ring_count(self):
        with pytest.raises(ModelSpecError):
            self.make_model().scaled_to_ring(0)

    def test_incomplete_schedule_rejected(self):
        partial = HourlyNormalSchedule()
        partial.set(DayType.WEEKDAY, 0, 1.0, 0.0)
        with pytest.raises(ModelSpecError):
            CreateDropModel(edition=Edition.STANDARD_GP, creates=partial,
                            drops=HourlyNormalSchedule.constant(0, 0))


class TestMemoryModel:
    def test_initial_is_cold_buffer_pool(self):
        model = MemoryUsageModel(ALL_DATABASES)
        db = make_db()
        assert model.initial_value(context(db)) == COLD_BUFFER_POOL_GB

    def test_warmup_approaches_target(self):
        model = MemoryUsageModel(ALL_DATABASES, warmup_hours=1.0,
                                 jitter_fraction=0.0)
        db = make_db("BC_Gen5_4")  # 20.4 GB grant
        value = COLD_BUFFER_POOL_GB
        for _ in range(48):  # 4 hours of 5-minute reports
            value = model.next_value(context(db, prev=value, interval=300))
        target = 0.75 * db.slo.memory_gb
        assert value == pytest.approx(target, rel=0.05)

    def test_secondary_target_lower(self):
        model = MemoryUsageModel(ALL_DATABASES, warmup_hours=0.01,
                                 jitter_fraction=0.0)
        db = make_db()
        primary = model.next_value(context(db, prev=10.0, primary=True,
                                           interval=HOUR))
        secondary = model.next_value(context(db, prev=10.0, primary=False,
                                             interval=HOUR))
        assert secondary < primary

    def test_never_exceeds_grant(self):
        model = MemoryUsageModel(ALL_DATABASES, jitter_fraction=0.5)
        db = make_db("BC_Gen5_2")
        for seed in range(20):
            value = model.next_value(context(db, prev=db.slo.memory_gb,
                                             seed=seed))
            assert value <= db.slo.memory_gb

    def test_not_persisted(self):
        assert MemoryUsageModel(ALL_DATABASES).persisted is False

    def test_bad_fraction_rejected(self):
        with pytest.raises(ModelSpecError):
            MemoryUsageModel(ALL_DATABASES, primary_target_fraction=1.5)


class TestCpuModel:
    def make_model(self, mu=0.25, sigma=0.0):
        return CpuUsageModel(ALL_DATABASES,
                             HourlyNormalSchedule.constant(mu, sigma))

    def test_reports_used_cores(self):
        model = self.make_model(mu=0.25)
        db = make_db("BC_Gen5_8")
        value = model.next_value(context(db, prev=0.0))
        assert value == pytest.approx(0.25 * 8)

    def test_secondary_fraction(self):
        model = self.make_model(mu=0.5)
        db = make_db("BC_Gen5_8")
        secondary = model.next_value(context(db, prev=0.0, primary=False))
        assert secondary == pytest.approx(0.5 * 8 * 0.3)

    def test_utilization_clamped(self):
        model = self.make_model(mu=3.0)
        db = make_db("GP_Gen5_4")
        assert model.next_value(context(db, prev=0.0)) == pytest.approx(4.0)

    def test_initial_is_idle(self):
        assert self.make_model().initial_value(context(make_db())) == 0.0

    def test_advisory_metric_name(self):
        assert self.make_model().metric == CPU_USED_CORES
        assert CPU_USED_CORES != "cpu-cores"


class TestTotoModelSet:
    def test_find_by_metric_and_selector(self):
        disk_bc = make_flat_disk_model(Edition.PREMIUM_BC)
        disk_gp = make_flat_disk_model(Edition.STANDARD_GP)
        memory = MemoryUsageModel(ALL_DATABASES)
        model_set = TotoModelSet([disk_bc, disk_gp, memory])
        assert model_set.find(DISK_GB, make_db("BC_Gen5_2")) is disk_bc
        assert model_set.find(DISK_GB, make_db("GP_Gen5_2")) is disk_gp
        assert model_set.find(MEMORY_GB, make_db("GP_Gen5_2")) is memory

    def test_find_returns_none_when_no_match(self):
        model_set = TotoModelSet([make_flat_disk_model(Edition.PREMIUM_BC)])
        assert model_set.find(DISK_GB, make_db("GP_Gen5_2")) is None
        assert model_set.find(MEMORY_GB, make_db("BC_Gen5_2")) is None

    def test_first_match_wins(self):
        specific = make_flat_disk_model(Edition.PREMIUM_BC, mu=9.0)
        broad = make_flat_disk_model(Edition.PREMIUM_BC, mu=1.0)
        model_set = TotoModelSet([specific, broad])
        assert model_set.find(DISK_GB, make_db("BC_Gen5_2")) is specific

    def test_metrics_modeled(self):
        model_set = TotoModelSet([
            make_flat_disk_model(Edition.PREMIUM_BC),
            MemoryUsageModel(ALL_PREMIUM_BC),
        ])
        assert model_set.metrics_modeled() == [DISK_GB, MEMORY_GB]

    def test_len(self):
        assert len(TotoModelSet([])) == 0

    def test_binding_follows_the_slo_object(self):
        """A bound match is reused only while the database keeps the
        SLO object it was matched against."""
        disk_bc = make_flat_disk_model(Edition.PREMIUM_BC)
        disk_gp = make_flat_disk_model(Edition.STANDARD_GP)
        model_set = TotoModelSet([disk_bc, disk_gp])
        database = make_db("BC_Gen5_2")
        assert model_set.find(DISK_GB, database) is disk_bc
        assert model_set.find(DISK_GB, database) is disk_bc
        database.slo = get_slo("GP_Gen5_2")
        assert model_set.find(DISK_GB, database) is disk_gp
        assert model_set.find(MEMORY_GB, database) is None

    def test_bound_lookups_equal_the_first_match_scan(self):
        """Repeated lookups across databases sharing ids and SLOs return
        what the first-match scan over the model list returns."""
        models = [make_flat_disk_model(Edition.PREMIUM_BC, mu=9.0),
                  make_flat_disk_model(Edition.STANDARD_GP),
                  MemoryUsageModel(ALL_PREMIUM_BC),
                  CpuUsageModel(ALL_DATABASES,
                                HourlyNormalSchedule.constant(0.2, 0.1))]
        model_set = TotoModelSet(models)
        databases = [DatabaseInstance(db_id=f"db-{index % 3}",
                                      slo=get_slo(slo), created_at=0,
                                      initial_data_gb=1.0)
                     for index, slo in enumerate(
                         ["BC_Gen5_2", "GP_Gen5_2", "GP_Gen5_8",
                          "BC_Gen5_4", "GP_Gen5_2", "BC_Gen5_2"] * 2)]
        for database in databases:
            for metric in (DISK_GB, MEMORY_GB, CPU_USED_CORES):
                expected = next((m for m in models if m.metric == metric
                                 and m.applies_to(database)), None)
                assert model_set.find(metric, database) is expected

    def test_model_context_is_a_named_tuple(self):
        fields = ("now", "interval_seconds", "database", "is_primary",
                  "previous_value", "rng", "start_weekday")
        assert ModelContext._fields == fields
        assert context(make_db()).start_weekday == 0
