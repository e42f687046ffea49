"""Advanced integration tests: rebuild windows, live memory models,
mid-run XML retuning, and the greedy-placement ablation."""

import numpy as np
import pytest

from repro.core.disk_models import DiskUsageModel
from repro.core.hourly_schedule import HourlyNormalSchedule
from repro.core.memory_model import MemoryUsageModel
from repro.core.model_base import TotoModelSet
from repro.core.model_xml import TotoModelDocument
from repro.core.orchestrator import TotoOrchestrator
from repro.core.selectors import ALL_DATABASES, ALL_PREMIUM_BC
from repro.fabric.cluster import ServiceFabricCluster
from repro.fabric.metrics import DISK_GB, MEMORY_GB, NodeCapacities
from repro.fabric.replica import ReplicaRole
from repro.sqldb.editions import COLD_BUFFER_POOL_GB
from repro.units import HOUR, MINUTE
from tests.conftest import make_ring


class TestRebuildWindowVulnerability:
    def make_cluster(self):
        return ServiceFabricCluster(
            node_count=6,
            capacities=NodeCapacities(cpu_cores=32, disk_gb=1000,
                                      memory_gb=128),
            plb_rng=np.random.default_rng(1))

    def test_rebuild_window_recorded_on_bc_move(self):
        cluster = self.make_cluster()
        record = cluster.create_service("bc", 4, 2.0, {DISK_GB: 100.0},
                                        now=0)
        replica = record.secondaries[0]
        cluster.report_load(replica, {DISK_GB: 1200.0})
        cluster.sweep_violations(now=100)
        # Either the big replica moved (rebuild window set) or it was
        # stuck; when a move happened the window must be in the future.
        if cluster.failovers:
            assert cluster.rebuilding_until("bc") > 100

    def test_primary_move_during_rebuild_costs_the_window(self):
        cluster = self.make_cluster()
        record = cluster.create_service("bc", 4, 2.0, {DISK_GB: 200.0},
                                        now=0)
        cluster.set_rebuilding("bc", until=3000)
        primary = record.primary
        # Force a violation on the primary's node.
        cluster.report_load(primary, {DISK_GB: 1100.0})
        records = cluster.sweep_violations(now=600)
        primary_moves = [r for r in records
                         if r.role is ReplicaRole.PRIMARY
                         and r.service_id == "bc"]
        if primary_moves:
            # Remaining window is 2400s; downtime must reflect it.
            assert primary_moves[0].downtime_seconds >= 2400 - 1

    def test_window_cleared_on_drop(self):
        cluster = self.make_cluster()
        cluster.create_service("bc", 4, 2.0, {DISK_GB: 10.0}, now=0)
        cluster.set_rebuilding("bc", until=9999)
        cluster.drop_service("bc")
        assert cluster.rebuilding_until("bc") == 0

    def test_window_monotone(self):
        cluster = self.make_cluster()
        cluster.create_service("bc", 4, 2.0, {}, now=0)
        cluster.set_rebuilding("bc", until=500)
        cluster.set_rebuilding("bc", until=300)  # shorter: ignored
        assert cluster.rebuilding_until("bc") == 500


class TestLiveMemoryModel:
    def test_memory_warms_up_through_sweeps(self, kernel, rng_registry):
        """The §5.5 memory model running inside the full report loop."""
        ring = make_ring(kernel, rng_registry, node_count=6)
        db = ring.control_plane.create_database("BC_Gen5_4", now=0,
                                                initial_data_gb=40.0)
        memory_model = MemoryUsageModel(ALL_DATABASES, warmup_hours=0.5,
                                        jitter_fraction=0.0)
        for rgmanager in ring.rgmanagers:
            rgmanager.install_models(TotoModelSet([memory_model]), 1)
        ring.start()
        kernel.run_until(4 * HOUR)
        record = ring.cluster.service(db.db_id)
        primary_memory = record.primary.load(MEMORY_GB)
        assert primary_memory > COLD_BUFFER_POOL_GB
        assert primary_memory == pytest.approx(0.75 * db.slo.memory_gb,
                                               rel=0.05)
        # Secondaries warm to their lower target.
        for secondary in record.secondaries:
            assert secondary.load(MEMORY_GB) < primary_memory


class TestMidRunRetuning:
    def test_xml_update_changes_growth_within_refresh(self, kernel,
                                                      rng_registry):
        """§3.3.1: 'grow disk usage of Premium/BC replicas 2x faster is
        easily configurable simply by changing XML properties' — and it
        propagates via the 15-minute refresh, no restart."""
        ring = make_ring(kernel, rng_registry, node_count=6)
        orchestrator = TotoOrchestrator(kernel, ring)
        orchestrator.start()
        ring.start()
        db = ring.control_plane.create_database("BC_Gen5_4", now=0,
                                                initial_data_gb=100.0)

        def document(mu):
            return TotoModelDocument(resource_models=[
                DiskUsageModel(selector=ALL_PREMIUM_BC,
                               steady=HourlyNormalSchedule.constant(mu, 0.0),
                               persisted=True, rate_heterogeneity=0.0)])

        orchestrator.publish_models(document(4.0), propagate_now=True)
        kernel.run_until(2 * HOUR)
        primary = ring.cluster.service(db.db_id).primary
        disk_slow = primary.load(DISK_GB)
        slow_rate = (disk_slow - 100.0) / 2.0  # GB per hour

        orchestrator.publish_models(document(8.0))  # no propagate_now
        kernel.run_until(2 * HOUR + 20 * MINUTE)   # refresh picks it up
        start_fast = primary.load(DISK_GB)
        kernel.run_until(4 * HOUR + 20 * MINUTE)
        fast_rate = (primary.load(DISK_GB) - start_fast) / 2.0

        assert fast_rate == pytest.approx(2.0 * slow_rate, rel=0.1)


class TestGreedyAblation:
    def run_placements(self, use_annealing, seed=0):
        cluster = ServiceFabricCluster(
            node_count=8,
            capacities=NodeCapacities(cpu_cores=64, disk_gb=4096,
                                      memory_gb=256),
            plb_rng=np.random.default_rng(seed),
            use_annealing=use_annealing)
        rng = np.random.default_rng(42)
        for index in range(40):
            cores = float(rng.integers(2, 9))
            disk = float(rng.integers(20, 400))
            replica_count = 4 if index % 6 == 0 else 1
            cluster.create_service(f"s{index}", replica_count, cores,
                                   {DISK_GB: disk}, now=index)
        return cluster

    def test_both_modes_produce_valid_clusters(self):
        for use_annealing in (True, False):
            cluster = self.run_placements(use_annealing)
            cluster.validate_invariants()
            assert cluster.service_count == 40

    def test_greedy_is_deterministic(self):
        a = self.run_placements(False, seed=1)
        b = self.run_placements(False, seed=2)  # PLB seed unused
        placements_a = [r.node_id for r in a.replicas()]
        placements_b = [r.node_id for r in b.replicas()]
        assert placements_a == placements_b

    def test_annealing_spreads_cpu_reasonably(self):
        cluster = self.run_placements(True)
        loads = [node.load("cpu-cores") for node in cluster.nodes]
        assert max(loads) - min(loads) <= 24
