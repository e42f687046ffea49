"""Tests for model XML serialization (§3.3.1)."""

import pytest

from repro.errors import ModelSpecError
from repro.core.cpu_model import CpuUsageModel
from repro.core.disk_models import (
    DiskUsageModel,
    InitialGrowthSpec,
    RapidGrowthSpec,
)
from repro.core.hourly_schedule import HourlyNormalSchedule
from repro.core.memory_model import MemoryUsageModel
from repro.core.model_base import BinnedUniform
from repro.core.model_xml import (
    TotoModelDocument,
    parse_model_xml,
    serialize_model_xml,
)
from repro.core.selectors import ALL_PREMIUM_BC, DatabaseSelector
from repro.sqldb.editions import Edition
from tests.conftest import make_flat_population


def make_disk_model():
    return DiskUsageModel(
        selector=ALL_PREMIUM_BC,
        steady=HourlyNormalSchedule.constant(0.05, 0.2),
        initial_growth=InitialGrowthSpec(
            probability=0.1,
            totals=BinnedUniform(bins=((30.0, 60.0), (60.0, 400.0)))),
        rapid_growth=RapidGrowthSpec(
            probability=0.02, steady_duration=36000,
            increase_duration=2400, between_duration=18000,
            decrease_duration=2400,
            increase_totals=BinnedUniform(bins=((10.0, 200.0),)),
            decrease_totals=BinnedUniform(bins=((10.0, 180.0),))),
        persisted=True, floor_gb=0.75, rate_heterogeneity=0.6)


class TestRoundTrip:
    def test_disk_model_roundtrip(self):
        document = TotoModelDocument(resource_models=[make_disk_model()],
                                     seed_salt="test", start_weekday=2)
        restored = parse_model_xml(serialize_model_xml(document))
        assert restored.seed_salt == "test"
        assert restored.start_weekday == 2
        model = restored.resource_models[0]
        assert isinstance(model, DiskUsageModel)
        assert model.persisted is True
        assert model.floor_gb == 0.75
        assert model.rate_heterogeneity == 0.6
        assert model.selector.edition is Edition.PREMIUM_BC
        assert model.steady == make_disk_model().steady
        assert model.initial_growth.probability == 0.1
        assert model.initial_growth.totals.bins == \
            ((30.0, 60.0), (60.0, 400.0))
        assert model.rapid_growth.steady_duration == 36000
        assert model.rapid_growth.decrease_totals.bins == ((10.0, 180.0),)

    def test_memory_model_roundtrip(self):
        original = MemoryUsageModel(DatabaseSelector(min_cores=8),
                                    primary_target_fraction=0.6,
                                    secondary_target_fraction=0.2,
                                    warmup_hours=3.0, jitter_fraction=0.05)
        document = TotoModelDocument(resource_models=[original])
        restored = parse_model_xml(serialize_model_xml(document))
        model = restored.resource_models[0]
        assert isinstance(model, MemoryUsageModel)
        assert model.primary_target_fraction == 0.6
        assert model.warmup_hours == 3.0
        assert model.selector.min_cores == 8

    def test_cpu_model_roundtrip(self):
        original = CpuUsageModel(ALL_PREMIUM_BC,
                                 HourlyNormalSchedule.constant(0.2, 0.05),
                                 secondary_fraction=0.4)
        document = TotoModelDocument(resource_models=[original])
        restored = parse_model_xml(serialize_model_xml(document))
        model = restored.resource_models[0]
        assert isinstance(model, CpuUsageModel)
        assert model.secondary_fraction == 0.4
        assert model.utilization == original.utilization

    def test_population_roundtrip(self):
        population = make_flat_population()
        document = TotoModelDocument(population=population)
        restored = parse_model_xml(serialize_model_xml(document)).population
        assert restored is not None
        for edition in Edition:
            assert (restored.create_drop[edition].creates
                    == population.create_drop[edition].creates)
            assert (restored.slo_mix[edition].weights
                    == population.slo_mix[edition].weights)
            spec = restored.initial_data[edition]
            assert spec.mu == population.initial_data[edition].mu
            assert spec.core_exponent == \
                population.initial_data[edition].core_exponent

    def test_model_order_preserved(self):
        models = [make_disk_model(), MemoryUsageModel(ALL_PREMIUM_BC)]
        document = TotoModelDocument(resource_models=models)
        restored = parse_model_xml(serialize_model_xml(document))
        assert [type(m).__name__ for m in restored.resource_models] == \
            ["DiskUsageModel", "MemoryUsageModel"]


class TestParsing:
    def test_malformed_xml_rejected(self):
        with pytest.raises(ModelSpecError):
            parse_model_xml("<TotoModels")

    def test_wrong_root_rejected(self):
        with pytest.raises(ModelSpecError):
            parse_model_xml("<NotToto version='1'/>")

    def test_wrong_version_rejected(self):
        with pytest.raises(ModelSpecError):
            parse_model_xml("<TotoModels version='99'/>")

    def test_unknown_model_element_rejected(self):
        xml = ("<TotoModels version='1'><ResourceModels>"
               "<MysteryModel/></ResourceModels></TotoModels>")
        with pytest.raises(ModelSpecError):
            parse_model_xml(xml)

    def test_disk_model_requires_steady_state(self):
        xml = ("<TotoModels version='1'><ResourceModels>"
               "<DiskUsageModel persisted='true'/>"
               "</ResourceModels></TotoModels>")
        with pytest.raises(ModelSpecError):
            parse_model_xml(xml)

    def test_empty_document_ok(self):
        document = parse_model_xml("<TotoModels version='1'/>")
        assert document.resource_models == []
        assert document.population is None

    def test_bad_boolean_rejected(self):
        document = TotoModelDocument(resource_models=[make_disk_model()])
        xml = serialize_model_xml(document).replace(
            'persisted="true"', 'persisted="maybe"')
        with pytest.raises(ModelSpecError):
            parse_model_xml(xml)


class TestSemanticsPreserved:
    def test_parsed_model_samples_like_original(self):
        """A parsed model given the same context and seed produces the
        same value as the original — the declarative round trip is
        behaviour-preserving."""
        import numpy as np
        from repro.core.model_base import ModelContext
        from repro.sqldb.database import DatabaseInstance
        from repro.sqldb.slo import get_slo

        original = make_disk_model()
        document = TotoModelDocument(resource_models=[original])
        restored = parse_model_xml(serialize_model_xml(document))
        parsed = restored.resource_models[0]

        db = DatabaseInstance(db_id="db-3", slo=get_slo("BC_Gen5_4"),
                              created_at=0, initial_data_gb=80.0)

        def sample(model, seed):
            return model.next_value(ModelContext(
                now=7200, interval_seconds=300, database=db,
                is_primary=True, previous_value=123.0,
                rng=np.random.default_rng(seed)))

        for seed in range(5):
            assert sample(original, seed) == sample(parsed, seed)
