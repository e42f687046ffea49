"""Tests for the §4 training pipeline."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.hourly_schedule import DayType
from repro.errors import TrainingError
from repro.models.delta_disk import (
    build_delta_disk_dataset,
    label_initial_growth,
    label_rapid_growth,
    robust_sigma,
)
from repro.models.hourly import HourlyTrainingSets, ks_p_values
from repro.models.training import (
    train_create_drop_model,
    train_disk_usage_model,
    train_initial_data_spec,
    train_model_document,
    train_population_models,
)
from repro.core.selectors import ALL_PREMIUM_BC
from repro.sqldb.editions import Edition
from repro.telemetry.production import (
    PERIODS_PER_DAY,
    DiskUsageTrace,
    ProductionTraceGenerator,
)
from repro.telemetry.region import US_EAST_LIKE


def _as_python(value):
    """``value`` with its arrays rendered as the Python lists the pins
    were taken from, so a digest hashes the reprs of the same floats."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _as_python(item) for key, item in value.items()}
    return value


def _corpus_sha256(traces):
    """Digest of every trace's index, edition, pattern and usage."""
    digest = hashlib.sha256()
    for trace in traces:
        usage = tuple(trace.usage_gb.tolist())
        digest.update(f"{trace.db_index}|{trace.edition.value}|"
                      f"{trace.pattern}|{usage!r}\n".encode())
    return digest.hexdigest()


def _datasets_sha256(datasets):
    """Digest of every field of each edition's dataset; the reprs keep
    ``steady_by_cell`` in key order and each cell in sample order."""
    digest = hashlib.sha256()
    for edition, dataset in datasets.items():
        digest.update(f"{edition.value}\n".encode())
        for field in dataclasses.fields(dataset):
            value = _as_python(getattr(dataset, field.name))
            digest.update(f"{field.name}={value!r}\n".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def generator():
    return ProductionTraceGenerator(US_EAST_LIKE, np.random.default_rng(55))


@pytest.fixture(scope="module")
def event_traces(generator):
    return generator.create_and_drop_traces(days=14)


@pytest.fixture(scope="module")
def disk_corpus(generator):
    return generator.disk_corpus(n_databases=150, days=7)


class TestHourlyTraining:
    def test_groups_have_48_cells_for_two_weeks(self, event_traces):
        trace = event_traces[(Edition.STANDARD_GP, "create")]
        sets = HourlyTrainingSets.from_trace(trace)
        assert len(sets.groups) == 48

    def test_weekday_samples_count(self, event_traces):
        trace = event_traces[(Edition.STANDARD_GP, "create")]
        sets = HourlyTrainingSets.from_trace(trace)
        # 14 days starting Monday: 10 weekdays, 4 weekend days.
        assert len(sets.sample(DayType.WEEKDAY, 0)) == 10
        assert len(sets.sample(DayType.WEEKEND, 0)) == 4

    def test_fit_schedule_complete(self, event_traces):
        trace = event_traces[(Edition.PREMIUM_BC, "drop")]
        schedule = HourlyTrainingSets.from_trace(trace).fit_schedule()
        schedule.validate()

    def test_ks_p_values_mostly_pass(self, event_traces):
        trace = event_traces[(Edition.STANDARD_GP, "create")]
        sets = HourlyTrainingSets.from_trace(trace)
        values = ks_p_values(sets, DayType.WEEKDAY)
        assert len(values) > 0
        passing = sum(1 for p in values if p > 0.05)
        assert passing >= 0.75 * len(values)

    def test_missing_group_raises(self):
        sets = HourlyTrainingSets(groups={})
        with pytest.raises(TrainingError):
            sets.sample(DayType.WEEKDAY, 0)


class TestCreateDropTraining:
    def test_trained_model_matches_trace_scale(self, event_traces):
        create = event_traces[(Edition.STANDARD_GP, "create")]
        drop = event_traces[(Edition.STANDARD_GP, "drop")]
        model = train_create_drop_model(create, drop)
        trained_daily = sum(model.expected_creates(DayType.WEEKDAY, hour)
                            for hour in range(24))
        observed = np.mean([total for day, total in
                            enumerate(create.daily_totals())
                            if day % 7 < 5])
        assert trained_daily == pytest.approx(observed, rel=0.05)

    def test_mismatched_editions_rejected(self, event_traces):
        with pytest.raises(TrainingError):
            train_create_drop_model(
                event_traces[(Edition.STANDARD_GP, "create")],
                event_traces[(Edition.PREMIUM_BC, "drop")])

    def test_short_trace_fills_weekend_cells(self, generator):
        # 4 days starting Monday never sees a weekend.
        create = generator.event_trace(Edition.STANDARD_GP, "create",
                                       days=4)
        drop = generator.event_trace(Edition.STANDARD_GP, "drop", days=4)
        model = train_create_drop_model(create, drop)
        model.creates.validate()  # weekend cells filled with fallback


class TestDeltaDiskLabeling:
    def test_robust_sigma_ignores_spikes(self):
        deltas = np.concatenate([np.full(100, 0.01), [500.0, -500.0]])
        assert robust_sigma(deltas) < 0.1
        assert np.std(deltas) > 10.0

    @pytest.mark.parametrize("length", [100, 101])
    def test_robust_sigma_of_a_matrix_is_each_row_s(self, length):
        rows = np.random.default_rng(length).normal(size=(6, length))
        assert robust_sigma(rows).tolist() == [robust_sigma(row)
                                               for row in rows]

    def test_initial_label(self, generator):
        trace = generator.disk_trace(0, Edition.PREMIUM_BC, days=2,
                                     pattern="initial")
        assert label_initial_growth(trace)

    def test_steady_not_labeled_initial(self, generator):
        trace = generator.disk_trace(0, Edition.STANDARD_GP, days=2,
                                     pattern="steady")
        assert not label_initial_growth(trace)

    def test_rapid_label(self, generator):
        trace = generator.disk_trace(0, Edition.PREMIUM_BC, days=14,
                                     pattern="rapid")
        assert label_rapid_growth(trace)

    def test_steady_not_labeled_rapid(self, generator):
        trace = generator.disk_trace(0, Edition.STANDARD_GP, days=14,
                                     pattern="steady")
        assert not label_rapid_growth(trace)

    def test_dataset_steady_fraction_high(self, disk_corpus):
        dataset = build_delta_disk_dataset(disk_corpus)
        assert dataset.steady_fraction > 0.98  # paper reports ~99.8%

    def test_cells_keyed_in_order_of_first_sample(self):
        """A Saturday start puts the weekend cells first: cells are
        inserted as their first sample arrives."""
        usage = tuple(10.0 + 0.01 * period
                      for period in range(7 * PERIODS_PER_DAY + 1))
        trace = DiskUsageTrace(db_index=0, edition=Edition.STANDARD_GP,
                               usage_gb=usage, pattern="steady")
        dataset = build_delta_disk_dataset([trace], start_weekday=5)
        assert list(dataset.steady_by_cell) == (
            [(DayType.WEEKEND, hour) for hour in range(24)]
            + [(DayType.WEEKDAY, hour) for hour in range(24)])

    def test_dataset_probabilities_sane(self, disk_corpus):
        dataset = build_delta_disk_dataset(disk_corpus)
        assert 0 < dataset.initial_probability < 0.3
        assert 0 < dataset.rapid_probability < 0.3

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError):
            build_delta_disk_dataset([])

    def test_mixed_lengths_rejected(self, generator):
        traces = [generator.disk_trace(0, Edition.STANDARD_GP, days=days)
                  for days in (1, 2)]
        with pytest.raises(TrainingError):
            build_delta_disk_dataset(traces)


class TestDiskModelTraining:
    def test_trained_model_has_all_components(self, disk_corpus):
        bc_traces = [t for t in disk_corpus
                     if t.edition is Edition.PREMIUM_BC]
        dataset = build_delta_disk_dataset(bc_traces)
        model = train_disk_usage_model(dataset, ALL_PREMIUM_BC,
                                       persisted=True)
        model.steady.validate()
        assert model.persisted
        assert model.initial_growth is not None
        assert model.rapid_growth is not None
        assert model.rapid_growth.cycle_seconds > 0

    def test_initial_data_spec_fit(self, disk_corpus):
        spec = train_initial_data_spec(disk_corpus, Edition.PREMIUM_BC)
        starts = [t.usage_gb[0] for t in disk_corpus
                  if t.edition is Edition.PREMIUM_BC]
        assert spec.median_gb() == pytest.approx(np.exp(
            np.mean(np.log(starts))), rel=0.01)
        assert spec.core_exponent > 0

    def test_initial_data_spec_needs_traces(self):
        with pytest.raises(TrainingError):
            train_initial_data_spec([], Edition.PREMIUM_BC)


class TestPopulationTraining:
    def test_population_models_complete(self, event_traces, disk_corpus):
        population = train_population_models(event_traces, disk_corpus,
                                             ring_count=15)
        population.validate()
        assert len(population.editions) == 2

    def test_ring_scaling_applied(self, event_traces, disk_corpus):
        region = train_population_models(event_traces, disk_corpus,
                                         ring_count=1)
        ring = train_population_models(event_traces, disk_corpus,
                                       ring_count=10)
        region_rate = region.create_drop[Edition.STANDARD_GP] \
            .expected_creates(DayType.WEEKDAY, 13)
        ring_rate = ring.create_drop[Edition.STANDARD_GP] \
            .expected_creates(DayType.WEEKDAY, 13)
        assert ring_rate == pytest.approx(region_rate / 10.0)


class TestFullPipeline:
    def test_tiny_artifacts_document_complete(self, tiny_artifacts):
        document = tiny_artifacts.document
        assert len(document.resource_models) == 2
        assert document.population is not None
        document.population.validate()

    def test_document_serializable(self, tiny_artifacts):
        from repro.core.model_xml import parse_model_xml, \
            serialize_model_xml
        xml = serialize_model_xml(tiny_artifacts.document)
        restored = parse_model_xml(xml)
        assert len(restored.resource_models) == 2

    def test_default_document_sha256_is_pinned(self):
        """Every golden digest depends on the default trained document;
        the run manifest records this hash as
        ``models.document_sha256``."""
        from repro.core.model_xml import serialize_model_xml
        from repro.experiments.scenarios import trained_artifacts
        from repro.obs.manifest import sha256_text
        xml = serialize_model_xml(trained_artifacts().document)
        assert sha256_text(xml) == ("93ae17367eb60b9a3ed8348e428f5f56"
                                    "828e64727a6616cc34b9785037c3ae8a")

    def test_default_corpus_sha256_is_pinned(self):
        """The Figure 9 study and the CLI's dataset summary read the
        trained corpus directly, not through the serialized document."""
        from repro.experiments.scenarios import trained_artifacts
        assert _corpus_sha256(trained_artifacts().disk_traces) == (
            "e22f3a8267cecb83e276ce694e7cc0b1"
            "11051e6a441088fa93477f6a593b8fae")

    def test_default_datasets_sha256_is_pinned(self):
        from repro.experiments.scenarios import trained_artifacts
        assert _datasets_sha256(trained_artifacts().datasets) == (
            "2d171fc20e05246a47657f52cc581177"
            "c568af816256ac850131d08e70ed338c")

    def test_floor_path_corpus_and_datasets_are_pinned(self):
        """A shrinking profile whose traces hit the 0.1 GB usage floor
        (the default corpus never does), with initial and rapid traces
        in both editions."""
        profile = dataclasses.replace(
            US_EAST_LIKE, disk_delta_base=-0.5, disk_delta_peak=0.2,
            gp_start_log_mu=0.0, gp_start_log_sigma=0.5)
        generator = ProductionTraceGenerator(profile,
                                             np.random.default_rng(7))
        traces = generator.disk_corpus(n_databases=200, days=7)
        assert sum(np.count_nonzero(t.usage_gb == 0.1)
                   for t in traces) == 80560
        for edition in Edition:
            for pattern in ("initial", "rapid"):
                assert sum(1 for t in traces if t.edition is edition
                           and t.pattern == pattern) >= 2
        assert _corpus_sha256(traces) == (
            "4171958ea7c927b546bacf5eb0b98262"
            "4156838942d45804db8fd9630afd6c4b")
        datasets = {edition: build_delta_disk_dataset(
            [t for t in traces if t.edition is edition])
            for edition in Edition}
        assert _datasets_sha256(datasets) == (
            "86be7eb4e9b7c4491b7a2a63975d5b79"
            "99b9511fe126d37053b617ed36f07d67")

    def test_default_artifacts_hold_read_only_float64_arrays(self):
        from repro.experiments.scenarios import trained_artifacts
        artifacts = trained_artifacts()
        arrays = [trace.usage_gb for trace in artifacts.disk_traces]
        for dataset in artifacts.datasets.values():
            arrays.extend(dataset.steady_by_cell.values())
        for array in arrays:
            assert isinstance(array, np.ndarray)
            assert array.dtype == np.float64
            assert not array.flags.writeable

    def test_training_memory_is_bounded(self):
        """Training on 200 traces peaks at 4-5 MiB of traced memory with
        the samples held as float64 arrays. Held as Python floats it
        peaked at 12.6 MiB, and the 1,200-trace default corpus kept
        76 MiB."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_model_document(US_EAST_LIKE, np.random.default_rng(3),
                                 disk_corpus_size=200)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_gp_model_not_persisted_bc_persisted(self, tiny_artifacts):
        by_edition = {model.selector.edition: model
                      for model in tiny_artifacts.document.resource_models}
        assert by_edition[Edition.PREMIUM_BC].persisted is True
        assert by_edition[Edition.STANDARD_GP].persisted is False
