"""Tests for the Population Manager (§3.3.3)."""

from repro.core.population_manager import PopulationManager
from repro.sqldb.editions import Edition
from repro.units import DAY, HOUR
from tests.conftest import make_flat_population, make_ring


def make_manager(kernel, ring, rng_registry, creates=2.0, drops=0.0,
                 document=None):
    return PopulationManager(
        kernel=kernel, control_plane=ring.control_plane,
        models=make_flat_population(creates_per_hour=creates,
                                    drops_per_hour=drops),
        rng=rng_registry.stream("population-manager"),
        model_document=document)


class TestScheduling:
    def test_wakes_at_top_of_hour(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry, node_count=8)
        manager = make_manager(kernel, ring, rng_registry)
        kernel.run_until(30 * 60)  # 00:30
        manager.start()
        kernel.run_until(HOUR + 1)
        assert manager.stats.hours_ticked == 1

    def test_requests_spread_within_hour(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry, node_count=8)
        manager = make_manager(kernel, ring, rng_registry, creates=8.0)
        manager.start()
        kernel.run_until(2 * HOUR)
        offsets = [request.at % HOUR for request in manager.request_log]
        assert len(set(offsets)) > 1  # not all at the top of the hour

    def test_creates_reach_control_plane(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry, node_count=8)
        manager = make_manager(kernel, ring, rng_registry, creates=2.0)
        manager.start()
        kernel.run_until(4 * HOUR)
        # 3 full hours x (2 GP + 0.5 BC) — BC rounds to 0 or 1.
        assert ring.control_plane.creates_succeeded >= 6
        assert manager.stats.creates_admitted == \
            ring.control_plane.creates_succeeded

    def test_stop_halts_churn(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry, node_count=8)
        manager = make_manager(kernel, ring, rng_registry)
        manager.start()
        kernel.run_until(90 * 60)
        manager.stop()
        ticked = manager.stats.hours_ticked
        kernel.run_until(kernel.now + 5 * HOUR)
        assert manager.stats.hours_ticked == ticked


class TestDrops:
    def test_drops_remove_young_databases(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry, node_count=8)
        manager = make_manager(kernel, ring, rng_registry, creates=4.0,
                               drops=2.0)
        manager.start()
        kernel.run_until(6 * HOUR)
        assert manager.stats.drops_executed > 0
        assert ring.control_plane.drops_executed == \
            manager.stats.drops_executed

    def test_drops_skip_when_only_old_databases(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry, node_count=8)
        # Create one old database manually, then run drops only.
        ring.control_plane.create_database("GP_Gen5_2", now=0,
                                           initial_data_gb=10.0)
        kernel.run_until(3 * DAY)
        manager = make_manager(kernel, ring, rng_registry, creates=0.0,
                               drops=2.0)
        manager.start()
        kernel.run_until(kernel.now + 3 * HOUR)
        assert manager.stats.drops_executed == 0
        assert manager.stats.drops_skipped_empty > 0
        assert ring.control_plane.active_count() == 1

    def test_drop_respects_edition(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry, node_count=8)
        # Flat population: GP creates 4/h, BC creates 1/h; drops GP only.
        manager = PopulationManager(
            kernel=kernel, control_plane=ring.control_plane,
            models=make_flat_population(creates_per_hour=4.0,
                                        drops_per_hour=4.0),
            rng=rng_registry.stream("pm"))
        manager.start()
        kernel.run_until(5 * HOUR)
        # BC drops requested at 1/h; all executed drops must match the
        # requested edition, which we can only verify via counts:
        dropped = [db for db in ring.control_plane.all_databases()
                   if not db.is_active]
        assert all(db.edition in (Edition.STANDARD_GP, Edition.PREMIUM_BC)
                   for db in dropped)
        assert manager.stats.drops_requested >= manager.stats.drops_executed


class TestDeterminism:
    def test_identical_request_log_across_densities(self, rng_registry,
                                                    tiny_document):
        """§5.2: one Population Manager seed fixes order, SLO, sizes and
        flags of every creation, independent of admission outcomes."""
        from repro.rng import RngRegistry
        from repro.simkernel import SimulationKernel

        def run(density):
            kernel = SimulationKernel()
            registry = RngRegistry(777)
            ring = make_ring(kernel, registry, node_count=6,
                             density=density)
            manager = PopulationManager(
                kernel=kernel, control_plane=ring.control_plane,
                models=tiny_document.population,
                rng=registry.stream("population-manager"),
                model_document=tiny_document)
            ring.start()
            manager.start()
            kernel.run_until(12 * HOUR)
            return manager.request_log

        log_a = run(1.0)
        log_b = run(1.4)
        assert log_a == log_b
        assert log_a, "expected some requests"

    def test_redirects_recorded_not_raised(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry, node_count=4)
        # Fill the ring completely.
        for _ in range(4):
            ring.control_plane.create_database("GP_Gen5_32", now=0,
                                               initial_data_gb=10.0)
        manager = make_manager(kernel, ring, rng_registry, creates=3.0)
        manager.start()
        kernel.run_until(3 * HOUR)  # must not raise
        assert manager.stats.creates_redirected > 0
        assert ring.control_plane.redirect_count() == \
            manager.stats.creates_redirected
