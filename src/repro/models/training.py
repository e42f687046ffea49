"""End-to-end model training (paper §4).

Produces exactly what the paper's pipeline produced: hourly-normal
Create/Drop models per edition, the composite disk-usage model per
edition (steady + initial + rapid), and a complete, serializable
:class:`repro.core.TotoModelDocument` ready to publish into a ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.core.create_drop import CreateDropModel
from repro.core.disk_models import (
    DiskUsageModel,
    INITIAL_GROWTH_DURATION,
    InitialGrowthSpec,
    RapidGrowthSpec,
)
from repro.core.hourly_schedule import DayType, HourlyNormalSchedule
from repro.core.model_base import BinnedUniform
from repro.core.model_xml import TotoModelDocument
from repro.core.population_models import (
    InitialDataSpec,
    PopulationModels,
    SloMix,
)
from repro.core.selectors import DatabaseSelector
from repro.models.delta_disk import DeltaDiskDataset, build_delta_disk_dataset
from repro.models.hourly import HourlyTrainingSets
from repro.sqldb.editions import Edition
from repro.sqldb.population import PopulationMix
from repro.stats.distributions import NormalDistribution
from repro.telemetry.production import (
    DiskUsageTrace,
    HourlyEventTrace,
    ProductionTraceGenerator,
)
from repro.telemetry.region import RegionProfile
from repro.units import DELTA_DISK_PERIOD


# ---------------------------------------------------------------------------
# Create / Drop models (§4.1)
# ---------------------------------------------------------------------------

def train_create_drop_model(create_trace: HourlyEventTrace,
                            drop_trace: HourlyEventTrace) -> CreateDropModel:
    """Fit the 2 x 24 hourly-normal schedules for one edition."""
    if create_trace.edition is not drop_trace.edition:
        raise TrainingError("create and drop traces are different editions")
    creates = HourlyTrainingSets.from_trace(create_trace).fit_schedule()
    drops = HourlyTrainingSets.from_trace(drop_trace).fit_schedule()
    _fill_missing_cells(creates)
    _fill_missing_cells(drops)
    return CreateDropModel(edition=create_trace.edition,
                           creates=creates, drops=drops)


def _fill_missing_cells(schedule: HourlyNormalSchedule) -> None:
    """Complete a schedule whose corpus lacked some (day type, hour).

    Short traces (e.g. a 5-weekday training window) leave weekend cells
    empty; fill them with the global mean so the schedule validates.
    """
    if schedule.is_complete:
        return
    if not schedule.cells:
        raise TrainingError("schedule has no trained cells at all")
    mus = [mu for mu, _ in schedule.cells.values()]
    sigmas = [sigma for _, sigma in schedule.cells.values()]
    fallback = (float(np.mean(mus)), float(np.mean(sigmas)))
    for daytype in DayType:
        for hour in range(24):
            if (daytype, hour) not in schedule.cells:
                schedule.set(daytype, hour, *fallback)


# ---------------------------------------------------------------------------
# Disk models (§4.2)
# ---------------------------------------------------------------------------

def train_disk_usage_model(dataset: DeltaDiskDataset,
                           selector: DatabaseSelector,
                           persisted: bool,
                           start_weekday: int = 0) -> DiskUsageModel:
    """Build the composite disk model from a Delta Disk dataset."""
    steady = HourlyNormalSchedule()
    for (daytype, hour), values in dataset.steady_by_cell.items():
        fitted = NormalDistribution.fit(values)
        steady.set(daytype, hour, fitted.mu, fitted.sigma)
    _fill_missing_cells(steady)

    initial_growth: Optional[InitialGrowthSpec] = None
    if dataset.initial_totals and dataset.initial_probability > 0:
        initial_growth = InitialGrowthSpec(
            probability=dataset.initial_probability,
            totals=BinnedUniform.from_sample(dataset.initial_totals),
            duration_seconds=INITIAL_GROWTH_DURATION,
        )

    rapid_growth: Optional[RapidGrowthSpec] = None
    if (dataset.rapid_increase and dataset.rapid_decrease
            and dataset.rapid_probability > 0):
        periods = dataset.rapid_state_periods

        def seconds(state: str, default_periods: float) -> int:
            value = periods.get(state, 0.0) or default_periods
            return max(int(round(value * DELTA_DISK_PERIOD)), DELTA_DISK_PERIOD)

        rapid_growth = RapidGrowthSpec(
            probability=dataset.rapid_probability,
            steady_duration=seconds("steady", 30.0),
            increase_duration=seconds("increase", 3.0),
            between_duration=seconds("between", 15.0),
            decrease_duration=seconds("decrease", 3.0),
            increase_totals=BinnedUniform.from_sample(dataset.rapid_increase),
            decrease_totals=BinnedUniform.from_sample(dataset.rapid_decrease),
        )

    return DiskUsageModel(selector=selector, steady=steady,
                          initial_growth=initial_growth,
                          rapid_growth=rapid_growth,
                          persisted=persisted,
                          start_weekday=start_weekday)


# ---------------------------------------------------------------------------
# Population models
# ---------------------------------------------------------------------------

def train_initial_data_spec(traces: List[DiskUsageTrace],
                            edition: Edition) -> InitialDataSpec:
    """Fit the lognormal initial-size distribution from trace starts."""
    starts = np.array([trace.usage_gb[0] for trace in traces
                       if trace.edition is edition and trace.usage_gb[0] > 0])
    if starts.size < 3:
        raise TrainingError(
            f"too few {edition.value} traces ({starts.size}) to fit sizes")
    logs = np.log(starts)
    # Size correlates with the purchased SLO: customers with large
    # databases buy large compute. The synthetic traces carry no SLO
    # dimension, so the exponent is a modeling constant — stronger for
    # local-store databases where data and compute scale together.
    core_exponent = 0.6 if edition is Edition.PREMIUM_BC else 0.3
    return InitialDataSpec(edition=edition,
                           mu=float(logs.mean()),
                           sigma=float(max(logs.std(), 1e-6)),
                           core_exponent=core_exponent)


def train_population_models(
        event_traces: Dict[Tuple[Edition, str], HourlyEventTrace],
        disk_traces: List[DiskUsageTrace],
        ring_count: int,
        mix: Optional[PopulationMix] = None) -> PopulationModels:
    """Assemble population models, scaled to one tenant ring.

    The SLO mix is demographic metadata the synthetic event traces do
    not carry, so it comes from a :class:`PopulationMix` (default: the
    Table 2 mix).
    """
    mix = mix if mix is not None else PopulationMix()
    population = PopulationModels()
    for edition in Edition:
        create = event_traces[(edition, "create")]
        drop = event_traces[(edition, "drop")]
        model = train_create_drop_model(create, drop)
        population.create_drop[edition] = model.scaled_to_ring(ring_count)
        population.slo_mix[edition] = SloMix(
            edition=edition, weights=mix.slo_weights(edition))
        population.initial_data[edition] = train_initial_data_spec(
            disk_traces, edition)
    population.validate()
    return population


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

@dataclass
class TrainingArtifacts:
    """Everything the training pipeline produced (for validation figures)."""

    document: TotoModelDocument
    event_traces: Dict[Tuple[Edition, str], HourlyEventTrace]
    disk_traces: List[DiskUsageTrace]
    datasets: Dict[Edition, DeltaDiskDataset] = field(default_factory=dict)


def train_model_document(profile: RegionProfile,
                         rng: np.random.Generator,
                         ring_count: Optional[int] = None,
                         training_days: int = 14,
                         disk_corpus_size: int = 400,
                         start_weekday: int = 0,
                         mix: Optional[PopulationMix] = None,
                         seed_salt: str = "trained") -> TrainingArtifacts:
    """Generate a training corpus and train a complete model document.

    This is the §4 pipeline end to end: synthesize the region's
    two-week telemetry, aggregate hourly, partition Delta Disk Usage,
    fit everything, and package resource + population models.
    """
    ring_count = ring_count if ring_count is not None \
        else profile.tenant_ring_count
    generator = ProductionTraceGenerator(profile, rng)
    event_traces = generator.create_and_drop_traces(
        days=training_days, start_weekday=start_weekday)
    disk_traces = generator.disk_corpus(
        n_databases=disk_corpus_size, days=training_days,
        start_weekday=start_weekday)

    datasets: Dict[Edition, DeltaDiskDataset] = {}
    resource_models = []
    for edition in Edition:
        edition_traces = [t for t in disk_traces if t.edition is edition]
        if not edition_traces:
            raise TrainingError(f"no disk traces for {edition.value}")
        dataset = build_delta_disk_dataset(edition_traces,
                                           start_weekday=start_weekday)
        datasets[edition] = dataset
        resource_models.append(train_disk_usage_model(
            dataset,
            selector=DatabaseSelector(edition=edition),
            # Local-store disk persists across failovers; remote-store
            # (tempdb) resets (§3.3.2).
            persisted=edition is Edition.PREMIUM_BC,
            start_weekday=start_weekday,
        ))

    population = train_population_models(event_traces, disk_traces,
                                         ring_count, mix)
    document = TotoModelDocument(resource_models=resource_models,
                                 population=population,
                                 seed_salt=seed_salt,
                                 start_weekday=start_weekday)
    return TrainingArtifacts(document=document, event_traces=event_traces,
                             disk_traces=disk_traces, datasets=datasets)
