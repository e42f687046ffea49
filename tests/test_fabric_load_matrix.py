"""The cluster load matrix and the vectorized node scans over it.

:class:`repro.fabric.node.LoadMatrix` is the only store of every node's
loads and availability: each :class:`~repro.fabric.node.Node` reads and
writes its own row and availability cell, and keeps no copy. Every
placement filter, target pick and make-room candidate list is one
vectorized pass over the matrix. Those passes must make exactly the
decisions the per-node Python loops they replaced made. The loops are
kept here, verbatim in logic, as the oracle: a hypothesis property
drives a small cluster through random creates, drops, load reports,
node failures, restores and violation sweeps, and after every step
checks ``validate_invariants`` and every scan against its scalar
reference.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.fabric.cluster import ServiceFabricCluster
from repro.fabric.metrics import CPU_CORES, DISK_GB, MEMORY_GB, NodeCapacities
from repro.fabric.node import Node, fold_sum
from repro.fabric.replica import Replica, ReplicaRole

CAPACITIES = NodeCapacities(cpu_cores=16.0, disk_gb=200.0, memory_gb=64.0)
NODE_COUNT = 6


# ----------------------------------------------------------------------
# Scalar references: the per-node loops the matrix scans replaced
# ----------------------------------------------------------------------

def ref_fits(node, loads):
    if not node.available:
        return False
    for metric in (CPU_CORES, DISK_GB, MEMORY_GB):
        needed = loads.get(metric, 0.0)
        if needed > 0 and node.free(metric) < needed:
            return False
    return True


def ref_feasible(nodes, service_id, loads):
    return [node.node_id for node in nodes
            if ref_fits(node, loads) and not node.hosts_service(service_id)]


def ref_greedy_seed_order(nodes, service_id, loads):
    feasible = [nodes[i] for i in ref_feasible(nodes, service_id, loads)]
    feasible.sort(key=lambda n: (-n.free(CPU_CORES), n.node_id))
    return [node.node_id for node in feasible]


def ref_make_room_candidates(nodes, service_id, loads):
    needed_cpu = loads.get(CPU_CORES, 0.0)
    candidates = []
    for node in nodes:
        if node.hosts_service(service_id):
            continue
        if ref_fits(node, loads):
            continue
        if any(loads.get(metric, 0.0) > 0
               and node.free(metric) < loads.get(metric, 0.0)
               for metric in (DISK_GB, MEMORY_GB)):
            continue
        if needed_cpu - node.free(CPU_CORES) > 0:
            candidates.append(node)
    candidates.sort(key=lambda node: (needed_cpu - node.free(CPU_CORES),
                                      node.node_id))
    return [node.node_id for node in candidates]


def ref_target_candidates(nodes, replica, source):
    return [node for node in nodes
            if node.node_id != source.node_id
            and not node.hosts_service(replica.service_id)
            and ref_fits(node, replica.reported)]


def ref_annealing_target(nodes, replica, source, use_annealing, rng):
    candidates = ref_target_candidates(nodes, replica, source)
    if not candidates:
        return None
    if use_annealing and len(candidates) > 1:
        candidates.sort(key=lambda n: ((n.load(DISK_GB)
                                        + replica.load(DISK_GB))
                                       / n.capacities.disk_gb,
                                       n.node_id))
        top = candidates[:3]
        return top[int(rng.integers(len(top)))].node_id
    return min(candidates,
               key=lambda n: ((n.load(DISK_GB) + replica.load(DISK_GB))
                              / n.capacities.disk_gb, n.node_id)).node_id


def ref_k8s_score(node, requests):
    total = 0.0
    for metric in (CPU_CORES, DISK_GB, MEMORY_GB):
        free = node.free(metric) - requests.get(metric, 0.0)
        total += free / node.capacities.of(metric)
    return total / 3


def ref_k8s_order(nodes, service_id, loads):
    requests = {metric: loads.get(metric, 0.0)
                for metric in (CPU_CORES, DISK_GB, MEMORY_GB)}
    feasible = [nodes[i] for i in ref_feasible(nodes, service_id, requests)]
    scored = sorted(feasible,
                    key=lambda node: (-ref_k8s_score(node, requests),
                                      node.node_id))
    return [node.node_id for node in scored]


def ref_k8s_target(nodes, replica, source):
    best = None
    best_score = 0.0
    for node in ref_target_candidates(nodes, replica, source):
        score = ref_k8s_score(node, replica.reported)
        if best is None or score > best_score or (
                score == best_score and node.node_id < best.node_id):
            best = node
            best_score = score
    return None if best is None else best.node_id


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------

#: Loads drawn from a few round values (ties between nodes are what
#: the node-id tie-breaks decide) or from the whole range.
def amounts(high):
    return st.one_of(st.sampled_from([0.0, 1.0, 2.0, high / 4, high / 2]),
                     st.floats(min_value=0.0, max_value=high,
                               allow_nan=False, allow_infinity=False))


PROBE_LOADS = st.fixed_dictionaries({
    CPU_CORES: st.sampled_from([0.0, 1.0, 2.0, 4.0, 8.0, 12.5]),
    DISK_GB: amounts(160.0),
    MEMORY_GB: amounts(48.0),
})


def check_scans(cluster, probe_service, probe_loads):
    """Every vectorized scan equals its scalar reference right now."""
    cluster.validate_invariants()
    backend = cluster.plb
    nodes = cluster.nodes
    assert backend._feasible_nodes(probe_service, probe_loads).tolist() \
        == ref_feasible(nodes, probe_service, probe_loads)
    assert backend._make_room_candidates(probe_service, probe_loads) \
        == ref_make_room_candidates(nodes, probe_service, probe_loads)
    # With replica_count equal to the feasible count, find_placement
    # returns the whole ordered candidate list and draws nothing.
    expected = (ref_greedy_seed_order(nodes, probe_service, probe_loads)
                if backend.name == "annealing"
                else ref_k8s_order(nodes, probe_service, probe_loads))
    assert backend.find_placement(probe_service, len(expected),
                                  probe_loads) == expected
    if backend.name == "k8s":
        feasible = backend._feasible_nodes(probe_service, probe_loads)
        scores = backend._scores(feasible, probe_loads).tolist()
        reference = [ref_k8s_score(nodes[i], probe_loads)
                     for i in feasible.tolist()]
        assert [s.hex() for s in scores] == [s.hex() for s in reference]
    for replica in cluster.replicas():
        if replica.node_id is None:
            continue
        source = nodes[replica.node_id]
        if backend.name == "k8s":
            got = backend.choose_target(replica, source)
            want = ref_k8s_target(nodes, replica, source)
        else:
            rng = backend._rng
            twin = copy.deepcopy(rng)
            got = backend.choose_target(replica, source)
            want = ref_annealing_target(nodes, replica, source,
                                        backend.use_annealing, twin)
            assert rng.bit_generator.state == twin.bit_generator.state
        assert (None if got is None else got.node_id) == want


@pytest.mark.parametrize("backend,use_annealing",
                         [("annealing", True), ("annealing", False),
                          ("k8s", True)])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scans_match_scalar_loops(backend, use_annealing, data):
    cluster = ServiceFabricCluster(
        node_count=NODE_COUNT, capacities=CAPACITIES,
        plb_rng=np.random.default_rng(data.draw(st.integers(0, 2**16))),
        use_annealing=use_annealing, backend=backend)
    created = 0
    now = 0
    for _ in range(data.draw(st.integers(1, 25))):
        now += 300
        services = [record.service_id for record in cluster.services()]
        op = data.draw(st.sampled_from(
            ["create", "create", "drop", "report", "report", "fail",
             "restore", "sweep"]))
        if op == "create":
            created += 1
            try:
                cluster.create_service(
                    f"s{created}", data.draw(st.integers(1, 4)),
                    data.draw(st.sampled_from([1.0, 2.0, 4.0, 8.0])),
                    {DISK_GB: data.draw(amounts(120.0)),
                     MEMORY_GB: data.draw(amounts(32.0))}, now=now)
            except PlacementError:
                pass
        elif op == "drop" and services:
            cluster.drop_service(data.draw(st.sampled_from(services)))
        elif op == "report":
            placed = [r for r in cluster.replicas() if r.node_id is not None]
            if placed:
                replica = data.draw(st.sampled_from(placed))
                cluster.report_load(replica, {
                    DISK_GB: data.draw(amounts(250.0)),
                    MEMORY_GB: data.draw(amounts(80.0))})
        elif op == "fail":
            up = [n.node_id for n in cluster.nodes if n.available]
            if up:
                cluster.fail_node(data.draw(st.sampled_from(up)), now)
        elif op == "restore":
            down = [n.node_id for n in cluster.nodes if not n.available]
            if down:
                cluster.restore_node(data.draw(st.sampled_from(down)))
        elif op == "sweep":
            cluster.sweep_violations(now)
        services = [record.service_id for record in cluster.services()]
        probe_service = data.draw(st.sampled_from(services + ["new"]))
        check_scans(cluster, probe_service, data.draw(PROBE_LOADS))


# ----------------------------------------------------------------------
# The mirror and the totals
# ----------------------------------------------------------------------

class TestMirror:
    def make_cluster(self):
        return ServiceFabricCluster(node_count=4, capacities=CAPACITIES,
                                    plb_rng=np.random.default_rng(1))

    def test_rows_follow_attach_report_detach(self):
        cluster = self.make_cluster()
        record = cluster.create_service("a", 2, 4.0, {DISK_GB: 30.0},
                                        now=0)
        replica = record.replicas[0]
        cluster.report_load(replica, {DISK_GB: 55.5, MEMORY_GB: 3.0})
        row = cluster.matrix.loads[replica.node_id]
        assert row.tolist() == [4.0, 55.5, 3.0]
        cluster.drop_service("a")
        assert not cluster.matrix.loads.any()
        cluster.validate_invariants()

    def test_fail_and_restore_set_the_mask(self):
        cluster = self.make_cluster()
        cluster.fail_node(2, now=0)
        assert cluster.matrix.available.tolist() == [True, True, False, True]
        assert [node.available for node in cluster.nodes] \
            == [True, True, False, True]
        cluster.restore_node(2)
        assert cluster.matrix.available.all()
        assert all(node.available for node in cluster.nodes)
        # The node reads the mask: there is no second copy to update.
        cluster.matrix.available[1] = False
        assert not cluster.nodes[1].available

    def test_recompute_rewrites_the_row(self):
        cluster = self.make_cluster()
        record = cluster.create_service("a", 1, 2.0, {DISK_GB: 7.0}, now=0)
        node_id = record.replicas[0].node_id
        cluster.matrix.loads[node_id] = 0.0  # corrupt deliberately
        cluster.nodes[node_id].recompute_loads()
        assert cluster.matrix.loads[node_id].tolist() == [2.0, 7.0, 0.0]
        cluster.validate_invariants()

    def test_standalone_node_keeps_a_private_row(self):
        node = Node(5, CAPACITIES)
        other = Node(6, CAPACITIES)
        node.attach(Replica(replica_id=1, service_id="a",
                            role=ReplicaRole.PRIMARY,
                            reported={CPU_CORES: 2.0, DISK_GB: 7.0}))
        assert node._row.tolist() == [2.0, 7.0, 0.0]
        assert node.load(DISK_GB) == 7.0
        assert other._row.tolist() == [0.0, 0.0, 0.0]
        assert node.available and other.available
        node._available[0] = False
        assert not node.available
        assert other.available


class TestFoldSum:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e12, max_value=1e12),
                    max_size=60))
    def test_left_fold_from_zero(self, values):
        total = 0.0
        for value in values:
            total += value
        assert fold_sum(values).hex() == total.hex()

    def test_uncompensated_on_every_python(self):
        # 3.12's compensated sum() gives 1.0 here.
        assert fold_sum([0.1] * 10) == 0.9999999999999999

    def test_negative_zero_and_empty(self):
        assert math.copysign(1.0, fold_sum([-0.0, -0.0])) == 1.0
        assert fold_sum([]) == 0.0

    def test_cluster_totals_fold_the_columns(self):
        cluster = ServiceFabricCluster(node_count=5, capacities=CAPACITIES,
                                       plb_rng=np.random.default_rng(3))
        for index in range(5):
            cluster.create_service(f"s{index}", 1, 1.1 * (index + 1),
                                   {DISK_GB: 0.1 * (index + 3)}, now=0)
        for metric in (CPU_CORES, DISK_GB):
            total = 0.0
            for node in cluster.nodes:
                total += node.load(metric)
            assert cluster.total_load(metric) == total
