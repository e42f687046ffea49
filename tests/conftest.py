"""Shared fixtures: small rings, tiny trained documents, fast scenarios.

Expensive artifacts (trained model documents) are session-scoped and
downsized so the whole suite stays fast while still exercising every
code path the full experiments use.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.core.hourly_schedule import HourlyNormalSchedule
from repro.core.model_xml import TotoModelDocument
from repro.core.population_models import (
    InitialDataSpec,
    PopulationModels,
    SloMix,
)
from repro.core.create_drop import CreateDropModel
from repro.core.disk_models import DiskUsageModel
from repro.analysis import LintReport, lint_paths
from repro.core.selectors import ALL_PREMIUM_BC, ALL_STANDARD_GP
from repro.fabric.metrics import NodeCapacities
from repro.models.training import TrainingArtifacts, train_model_document
from repro.rng import RngRegistry
from repro.simkernel import SimulationKernel
from repro.sqldb.editions import Edition
from repro.sqldb.tenant_ring import TenantRing, TenantRingConfig
from repro.telemetry.region import US_EAST_LIKE


SMALL_CAPACITIES = NodeCapacities(cpu_cores=32.0, disk_gb=1024.0,
                                  memory_gb=128.0)


@pytest.fixture
def kernel() -> SimulationKernel:
    return SimulationKernel()


@pytest.fixture
def rng_registry() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_ring(kernel, rng_registry) -> TenantRing:
    """A 4-node ring with small capacities for fast unit tests."""
    config = TenantRingConfig(node_count=4, base_capacities=SMALL_CAPACITIES,
                              density=1.0)
    return TenantRing(kernel, config, rng_registry)


def make_ring(kernel, rng_registry, node_count=4, density=1.0,
              capacities=SMALL_CAPACITIES, **kwargs) -> TenantRing:
    config = TenantRingConfig(node_count=node_count,
                              base_capacities=capacities,
                              density=density, **kwargs)
    return TenantRing(kernel, config, rng_registry)


@pytest.fixture(scope="session")
def tiny_artifacts() -> TrainingArtifacts:
    """A small but complete trained model document (shared, read-only)."""
    rng = np.random.default_rng(777)
    return train_model_document(US_EAST_LIKE, rng, training_days=7,
                                disk_corpus_size=120)


@pytest.fixture(scope="session")
def tiny_document(tiny_artifacts) -> TotoModelDocument:
    return tiny_artifacts.document


@pytest.fixture(scope="session")
def repo_lint_report() -> LintReport:
    """The full lint catalogue over ``src/repro``, run once per session;
    the repo-state tests of the analysis suites all read this report."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    return lint_paths([src])


def make_flat_disk_model(edition: Edition, mu: float = 0.0,
                         sigma: float = 0.0, persisted: bool = None,
                         **kwargs) -> DiskUsageModel:
    """A disk model with constant growth parameters (no training)."""
    if persisted is None:
        persisted = edition is Edition.PREMIUM_BC
    selector = (ALL_PREMIUM_BC if edition is Edition.PREMIUM_BC
                else ALL_STANDARD_GP)
    return DiskUsageModel(selector=selector,
                          steady=HourlyNormalSchedule.constant(mu, sigma),
                          persisted=persisted, **kwargs)


def make_flat_population(creates_per_hour: float = 2.0,
                         drops_per_hour: float = 1.0) -> PopulationModels:
    """Population models with flat hourly rates (no training)."""
    population = PopulationModels()
    for edition, prefix in ((Edition.STANDARD_GP, "GP"),
                            (Edition.PREMIUM_BC, "BC")):
        rate = creates_per_hour if edition is Edition.STANDARD_GP \
            else creates_per_hour / 4.0
        drop = drops_per_hour if edition is Edition.STANDARD_GP \
            else drops_per_hour / 4.0
        population.create_drop[edition] = CreateDropModel(
            edition=edition,
            creates=HourlyNormalSchedule.constant(rate, 0.0),
            drops=HourlyNormalSchedule.constant(drop, 0.0))
        population.slo_mix[edition] = SloMix.from_dict(
            edition, {f"{prefix}_Gen5_2": 0.7, f"{prefix}_Gen5_4": 0.3})
        population.initial_data[edition] = InitialDataSpec(
            edition=edition, mu=2.0, sigma=0.5, cap_gb=128.0)
    return population
