"""Tests for nodes, replicas, and load aggregation."""

import pytest

from repro.errors import FabricError
from repro.fabric.metrics import (
    CPU_CORES,
    DISK_GB,
    GEN5_NODE,
    MEMORY_GB,
    NodeCapacities,
)
from repro.fabric.node import Node
from repro.fabric.replica import Replica, ReplicaRole


def make_replica(replica_id=1, service="svc-a", role=ReplicaRole.PRIMARY,
                 cores=4.0, disk=100.0):
    return Replica(replica_id=replica_id, service_id=service, role=role,
                   reported={CPU_CORES: cores, DISK_GB: disk})


@pytest.fixture
def node():
    return Node(0, NodeCapacities(cpu_cores=32, disk_gb=1000, memory_gb=128))


class TestCapacities:
    def test_positive_required(self):
        with pytest.raises(FabricError):
            NodeCapacities(cpu_cores=0, disk_gb=1, memory_gb=1)

    def test_metric_lookup(self):
        caps = NodeCapacities(cpu_cores=8, disk_gb=100, memory_gb=32)
        assert caps.of(CPU_CORES) == 8
        assert caps.of(DISK_GB) == 100
        assert caps.of(MEMORY_GB) == 32

    def test_unknown_metric(self):
        with pytest.raises(FabricError):
            GEN5_NODE.of("bogus")

    def test_density_scales_only_cpu(self):
        scaled = GEN5_NODE.scaled_cpu(1.4)
        assert scaled.cpu_cores == pytest.approx(GEN5_NODE.cpu_cores * 1.4)
        assert scaled.disk_gb == GEN5_NODE.disk_gb
        assert scaled.memory_gb == GEN5_NODE.memory_gb

    def test_invalid_density(self):
        with pytest.raises(FabricError):
            GEN5_NODE.scaled_cpu(0.0)


class TestAttachDetach:
    def test_attach_updates_aggregates(self, node):
        node.attach(make_replica(cores=4, disk=50))
        assert node.load(CPU_CORES) == 4
        assert node.load(DISK_GB) == 50
        assert node.replica_count == 1

    def test_detach_restores_aggregates(self, node):
        replica = make_replica(cores=4, disk=50)
        node.attach(replica)
        node.detach(replica)
        assert node.load(CPU_CORES) == 0
        assert node.load(DISK_GB) == 0
        assert replica.node_id is None

    def test_attach_sets_node_id(self, node):
        replica = make_replica()
        node.attach(replica)
        assert replica.node_id == 0

    def test_double_attach_rejected(self, node):
        replica = make_replica()
        node.attach(replica)
        with pytest.raises(FabricError):
            node.attach(replica)

    def test_anti_affinity_enforced(self, node):
        node.attach(make_replica(replica_id=1, service="same"))
        with pytest.raises(FabricError):
            node.attach(make_replica(replica_id=2, service="same",
                                     role=ReplicaRole.SECONDARY))

    def test_detach_unknown_rejected(self, node):
        with pytest.raises(FabricError):
            node.detach(make_replica())

    def test_hosts_service(self, node):
        node.attach(make_replica(service="svc-x"))
        assert node.hosts_service("svc-x")
        assert not node.hosts_service("svc-y")


class TestLoadReports:
    def test_report_updates_incrementally(self, node):
        replica = make_replica(disk=100)
        node.attach(replica)
        node.apply_report(replica, {DISK_GB: 140.0})
        assert node.load(DISK_GB) == pytest.approx(140.0)
        assert replica.load(DISK_GB) == pytest.approx(140.0)

    def test_report_new_metric(self, node):
        replica = make_replica()
        node.attach(replica)
        node.apply_report(replica, {MEMORY_GB: 8.0})
        assert node.load(MEMORY_GB) == pytest.approx(8.0)

    def test_report_for_foreign_replica_rejected(self, node):
        with pytest.raises(FabricError):
            node.apply_report(make_replica(), {DISK_GB: 1.0})

    def test_aggregates_over_many_replicas(self, node):
        for index in range(4):
            node.attach(make_replica(replica_id=index,
                                     service=f"svc-{index}",
                                     cores=2, disk=10))
        assert node.load(CPU_CORES) == 8
        assert node.load(DISK_GB) == 40

    def test_recompute_matches_incremental(self, node):
        replicas = [make_replica(replica_id=i, service=f"s{i}", disk=25)
                    for i in range(3)]
        for replica in replicas:
            node.attach(replica)
        node.apply_report(replicas[1], {DISK_GB: 75.0})
        incremental = node.load(DISK_GB)
        node.recompute_loads()
        assert node.load(DISK_GB) == pytest.approx(incremental)


class TestCapacityQueries:
    def test_free(self, node):
        node.attach(make_replica(cores=10, disk=400))
        assert node.free(CPU_CORES) == pytest.approx(22)
        assert node.free(DISK_GB) == pytest.approx(600)

    def test_utilization(self, node):
        node.attach(make_replica(cores=16, disk=500))
        assert node.utilization(CPU_CORES) == pytest.approx(0.5)
        assert node.utilization(DISK_GB) == pytest.approx(0.5)

    def test_violates(self, node):
        replica = make_replica(disk=999)
        node.attach(replica)
        assert not node.violates(DISK_GB)
        node.apply_report(replica, {DISK_GB: 1001.0})
        assert node.violates(DISK_GB)
