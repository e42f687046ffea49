"""Failure-injection tests: node failures and recovery."""

import numpy as np
import pytest

from repro.errors import FabricError
from repro.fabric.cluster import ServiceFabricCluster
from repro.fabric.failover import REASON_NODE_FAILURE
from repro.fabric.metrics import DISK_GB, NodeCapacities


def make_cluster(nodes=5, cpu=32.0, disk=1000.0, seed=2):
    return ServiceFabricCluster(
        node_count=nodes,
        capacities=NodeCapacities(cpu_cores=cpu, disk_gb=disk,
                                  memory_gb=128.0),
        plb_rng=np.random.default_rng(seed))


class TestFailNode:
    def test_replicas_evacuated(self):
        cluster = make_cluster()
        cluster.create_service("bc", 4, 2.0, {DISK_GB: 50.0}, now=0)
        victim = cluster.service("bc").replicas[0].node_id
        records = cluster.fail_node(victim, now=100)
        assert records, "expected at least one evacuation"
        assert all(r.reason == REASON_NODE_FAILURE for r in records)
        assert cluster.node(victim).replica_count == 0
        # All four replicas still exist, on distinct live nodes.
        cluster.validate_invariants()
        node_ids = {r.node_id for r in cluster.service("bc").replicas}
        assert victim not in node_ids
        assert len(node_ids) == 4

    def test_primary_loss_promotes_secondary(self):
        cluster = make_cluster()
        record = cluster.create_service("bc", 4, 2.0, {DISK_GB: 30.0},
                                        now=0)
        primary = record.primary
        cluster.fail_node(primary.node_id, now=50)
        primaries = [r for r in record.replicas if r.is_primary]
        assert len(primaries) == 1
        assert primaries[0].replica_id != primary.replica_id

    def test_failed_node_excluded_from_placement(self):
        cluster = make_cluster(nodes=5)
        cluster.fail_node(0, now=0)
        for index in range(4):
            record = cluster.create_service(f"s{index}", 1, 4.0, {},
                                            now=10)
            assert record.replicas[0].node_id != 0

    def test_double_failure_rejected(self):
        cluster = make_cluster()
        cluster.fail_node(0, now=0)
        with pytest.raises(FabricError):
            cluster.fail_node(0, now=10)

    def test_single_replica_downtime_booked(self):
        cluster = make_cluster()
        record = cluster.create_service("gp", 1, 2.0, {DISK_GB: 20.0},
                                        now=0)
        node_id = record.replicas[0].node_id
        records = cluster.fail_node(node_id, now=100)
        assert len(records) == 1
        assert records[0].downtime_seconds > 0

    def test_secondary_loss_invisible(self):
        cluster = make_cluster()
        record = cluster.create_service("bc", 4, 2.0, {DISK_GB: 30.0},
                                        now=0)
        secondary = record.secondaries[0]
        records = cluster.fail_node(secondary.node_id, now=100)
        moved = [r for r in records
                 if r.replica_id == secondary.replica_id]
        assert moved[0].downtime_seconds == 0.0

    def test_restore_makes_node_placeable_again(self):
        cluster = make_cluster(nodes=5)
        cluster.fail_node(0, now=0)
        cluster.restore_node(0)
        # Pack the others so node 0 is the only one with room.
        for index in range(5):
            cluster.create_service(f"fill-{index}", 1, 28.0, {}, now=10)
        assert cluster.node(0).replica_count >= 1


class TestPendingReplicas:
    def make_tight_cluster(self):
        """Two nodes nearly full on disk: evacuation has nowhere to go."""
        cluster = make_cluster(nodes=2, disk=100.0)
        cluster.create_service("a", 1, 2.0, {DISK_GB: 80.0}, now=0)
        cluster.create_service("b", 1, 2.0, {DISK_GB: 80.0}, now=0)
        return cluster

    def test_stranded_replica_goes_pending(self):
        cluster = self.make_tight_cluster()
        victim = cluster.service("a").replicas[0].node_id
        records = cluster.fail_node(victim, now=100)
        assert records == []  # nothing could move
        assert cluster.pending_replicas == 1
        cluster.validate_invariants()  # pending tolerated

    def test_pending_placed_after_capacity_returns(self):
        cluster = self.make_tight_cluster()
        replica_a = cluster.service("a").replicas[0]
        victim = replica_a.node_id
        cluster.fail_node(victim, now=100)
        # Free space: drop the other tenant.
        cluster.drop_service("b")
        cluster.sweep_violations(now=700)
        assert cluster.pending_replicas == 0
        assert replica_a.node_id is not None
        # Outage lasted from the failure until placement.
        record = cluster.failovers[-1]
        assert record.reason == REASON_NODE_FAILURE
        assert record.downtime_seconds >= 600.0

    def test_pending_dropped_service_discarded(self):
        cluster = self.make_tight_cluster()
        victim = cluster.service("a").replicas[0].node_id
        cluster.fail_node(victim, now=100)
        cluster.drop_service("a")
        cluster.sweep_violations(now=400)
        assert cluster.pending_replicas == 0

    def test_listener_notified_on_evacuation(self):
        cluster = make_cluster()
        seen = []
        cluster.add_failover_listener(seen.append)
        cluster.create_service("bc", 4, 2.0, {DISK_GB: 30.0}, now=0)
        victim = cluster.service("bc").replicas[0].node_id
        cluster.fail_node(victim, now=100)
        assert seen
        assert all(r.reason == REASON_NODE_FAILURE for r in seen)
