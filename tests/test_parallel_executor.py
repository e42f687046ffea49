"""Parallel sweep execution: determinism, ordering, and fallback.

The executor's contract is that parallelism is *invisible* in the
results: a sweep run with ``max_workers=4`` must produce byte-identical
rows and KPIs to the serial loop, results must come back in spec order
(never completion order), and anything that prevents fanning out —
``max_workers=1``, unpicklable payloads, a broken pool — must degrade
to the serial path instead of failing.
"""

import multiprocessing
import pickle

import pytest

from repro.core.model_xml import (
    TotoModelDocument,
    parse_model_xml,
    serialize_model_xml,
)
from repro.core.orchestrator import TotoOrchestrator
from repro.core.scenario import BenchmarkScenario
from repro.experiments.density import DensityStudy
from repro.experiments.scenarios import paper_scenario
from repro.fabric.metrics import DISK_GB
from repro.fabric.replica import Replica, ReplicaRole
from repro.parallel import SweepExecutor, SweepProgress, run_scenarios
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.editions import Edition
from repro.sqldb.slo import get_slo
from repro.units import HOUR
from tests.conftest import make_flat_disk_model, make_ring

SWEEP_DENSITIES = (1.0, 1.1, 1.2)


def quick_scenario(density=1.0, seed=42):
    return paper_scenario(density=density, days=0.25, seed=seed,
                          maintenance=False)


def _reducer_reading_missing_field(result):
    """A reducer bug: reads an attribute results do not have."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("the reducer re-ran in the parent process")
    return result.no_such_field


class TestSerialParallelEquivalence:
    def test_density_sweep_byte_identical(self):
        """max_workers=4 reproduces the serial sweep bit for bit."""
        serial = DensityStudy(densities=SWEEP_DENSITIES, days=0.25,
                              seed=42, maintenance=False, max_workers=1)
        parallel = DensityStudy(densities=SWEEP_DENSITIES, days=0.25,
                                seed=42, maintenance=False, max_workers=4)
        serial_rows = serial.summary_rows()
        parallel_rows = parallel.summary_rows()
        assert (pickle.dumps(serial_rows)
                == pickle.dumps(parallel_rows))
        for density in SWEEP_DENSITIES:
            a, b = serial.result(density), parallel.result(density)
            assert a.kpis == b.kpis
            assert a.frames == b.frames
            assert pickle.dumps(a.kpis) == pickle.dumps(b.kpis)

    def test_multi_seed_grid_identical(self):
        """A density x seed grid matches serially and in parallel."""
        scenarios = [quick_scenario(density=d, seed=s)
                     for d in (1.0, 1.2) for s in (42, 43)]
        serial = run_scenarios(scenarios, max_workers=1)
        parallel = run_scenarios(scenarios, max_workers=4)
        for a, b in zip(serial, parallel):
            assert a.kpis == b.kpis
            assert a.revenue == b.revenue

    def test_results_keyed_by_spec_not_completion(self):
        """Longer first scenario cannot displace results of later ones."""
        scenarios = [
            quick_scenario(density=1.0).with_duration(12 * HOUR),
            quick_scenario(density=1.2).with_duration(2 * HOUR),
        ]
        results = run_scenarios(scenarios, max_workers=2)
        assert [r.scenario.name for r in results] \
            == [s.name for s in scenarios]
        assert results[0].scenario.duration == 12 * HOUR
        assert results[1].scenario.duration == 2 * HOUR


class TestExecutorMechanics:
    def test_empty_sweep(self):
        assert SweepExecutor(max_workers=4).run([]) == []

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(max_workers=0)

    def test_serial_mode_for_single_worker(self):
        executor = SweepExecutor(max_workers=1)
        executor.run([quick_scenario()])
        assert executor.last_mode == "serial"

    def test_progress_callback_sees_every_completion(self):
        seen = []
        executor = SweepExecutor(max_workers=2, progress=seen.append)
        executor.run([quick_scenario(1.0), quick_scenario(1.2)])
        assert len(seen) == 2
        assert all(isinstance(p, SweepProgress) for p in seen)
        assert {p.completed for p in seen} == {1, 2}
        assert all(p.total == 2 for p in seen)

    def test_unpicklable_scenario_falls_back_to_serial(self):
        class LocalDocument(TotoModelDocument):
            """Local classes cannot cross a process boundary."""

        scenario = BenchmarkScenario(
            name="unpicklable", model_document=LocalDocument(),
            duration=1 * HOUR, bootstrap_settle=0,
            run_population_manager=False)
        with pytest.raises(Exception):
            pickle.dumps(scenario)
        executor = SweepExecutor(max_workers=2)
        results = executor.run([scenario, scenario])
        assert executor.last_mode == "serial"
        assert len(results) == 2

    def test_scenario_error_propagates(self):
        import dataclasses

        from repro.errors import ScenarioError
        bad = dataclasses.replace(
            quick_scenario(), model_document=TotoModelDocument())
        with pytest.raises(ScenarioError):
            run_scenarios([bad], max_workers=1)

        # Pooled, a reducer bug is the caller's error, not pool death:
        # it is raised once from the workers, never re-run here, and
        # the warm pool survives for the next sweep.
        scenarios = [quick_scenario(seed=seed).with_duration(1 * HOUR)
                     for seed in (1, 2)]
        executor = SweepExecutor(max_workers=2,
                                 reducer=_reducer_reading_missing_field)
        try:
            with pytest.raises(AttributeError, match="no_such_field"):
                executor.run(scenarios)
            assert executor.last_mode == "parallel"
            pool = executor._pool
            assert pool is not None
            executor.reducer = None
            assert len(executor.run(scenarios)) == 2
            assert executor.last_mode == "parallel"
            assert executor._pool is pool
        finally:
            executor.shutdown()


class TestParseCache:
    """The orchestrator parses each published blob once per version."""

    def make_document(self, mu):
        # Non-persisted so probe state lives in RgManager memory only
        # (keeps the cached/uncached twins from sharing Naming state).
        return TotoModelDocument(resource_models=[
            make_flat_disk_model(Edition.PREMIUM_BC, mu=mu,
                                 rate_heterogeneity=0.0, persisted=False)])

    def probe_loads(self, rgmanager, now):
        database = DatabaseInstance(db_id="db-1", slo=get_slo("BC_Gen5_4"),
                                    created_at=0, initial_data_gb=100.0)
        replica = Replica(replica_id=1, service_id="db-1",
                          role=ReplicaRole.PRIMARY, node_id=rgmanager.node_id,
                          reported={DISK_GB: 100.0})
        return rgmanager.get_metric_loads(replica, database, now=now,
                                          interval_seconds=300)

    def test_one_parse_per_version_across_nodes(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry, node_count=4)
        orchestrator = TotoOrchestrator(kernel, ring)
        orchestrator.publish_models(self.make_document(mu=1.0),
                                    propagate_now=True)
        assert orchestrator.parses == 1
        assert all(r.model_version == 1 for r in ring.rgmanagers)
        # Version bump: exactly one more parse, all nodes on version 2.
        orchestrator.publish_models(self.make_document(mu=2.0),
                                    propagate_now=True)
        assert orchestrator.parses == 2
        assert all(r.model_version == 2 for r in ring.rgmanagers)

    def test_cached_refresh_matches_uncached_behaviour(self, kernel,
                                                       rng_registry):
        """Shared cached model set == per-node fresh parse, across a
        publish_models version bump."""
        from repro.core.model_base import TotoModelSet
        from repro.fabric.naming import NamingService
        from repro.rng import RngRegistry
        from repro.sqldb.rgmanager import RgManager

        ring = make_ring(kernel, rng_registry, node_count=3)
        orchestrator = TotoOrchestrator(kernel, ring)
        for version, mu in ((1, 1.0), (2, 3.0)):
            document = self.make_document(mu=mu)
            orchestrator.publish_models(document, propagate_now=True)
            xml = serialize_model_xml(document)
            for node_id, rgmanager in enumerate(ring.rgmanagers):
                # Uncached twin: same node id and seeds, fresh parse of
                # the same XML into its own model objects.
                uncached = RgManager(
                    node_id=node_id, naming=NamingService(),
                    rng_registry=RngRegistry(rng_registry.root_seed))
                uncached.install_models(
                    TotoModelSet(parse_model_xml(xml).resource_models),
                    version)
                assert rgmanager.model_version == version
                expected = self.probe_loads(uncached, now=version * 600)
                # Fresh streams/memory for the cached side too: compare
                # model behaviour, not RNG positions.
                rgmanager._streams.clear()
                rgmanager._rng_registry = RngRegistry(
                    rng_registry.root_seed)
                rgmanager._memory.clear()
                actual = self.probe_loads(rgmanager, now=version * 600)
                assert actual == expected
