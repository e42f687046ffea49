"""The Service-Fabric cluster facade.

Ties nodes, the Naming Service, and the PLB into the single object the
SQL DB substrate talks to. Exposes the orchestrator API surface Toto
exercises: create/drop service, report load, and the periodic
violation sweep that produces failovers. :data:`BACKENDS` names the
orchestrator backends a cluster can run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Type

import numpy as np

from repro.errors import FabricError, PlacementError, UnknownReplicaError
from repro.fabric.backend import OrchestratorBackend
from repro.fabric.failover import (
    REASON_NODE_FAILURE,
    FailoverRecord,
    failover_downtime,
    rebuild_seconds,
)
from repro.fabric.k8s import KubernetesBackend
from repro.fabric.metrics import CPU_CORES, DISK_GB, MEMORY_GB, NodeCapacities
from repro.fabric.naming import NamingService
from repro.fabric.node import METRIC_COLUMN, LoadMatrix, Node, fold_sum
from repro.fabric.plb import PlacementAndLoadBalancer
from repro.fabric.replica import Replica, ReplicaRole

FailoverListener = Callable[[FailoverRecord], None]

#: The orchestrator backends by name (``ServiceFabricCluster(backend=)``,
#: ``TenantRingConfig.backend``, ``ClusterTemplate.backend`` and
#: ``repro run --backend``; docs/ORCHESTRATORS.md).
BACKENDS: Dict[str, Type[OrchestratorBackend]] = {
    "annealing": PlacementAndLoadBalancer,
    "k8s": KubernetesBackend,
}


class PendingReplica(NamedTuple):
    """A replica displaced by a node failure, waiting for capacity."""

    replica: Replica
    source: Node
    since: int
    downtime: float
    role: ReplicaRole


@dataclass
class ServiceRecord:
    """Bookkeeping for one deployed service (one database)."""

    service_id: str
    replica_count: int
    cpu_cores: float
    created_at: int
    replicas: List[Replica] = field(default_factory=list)

    @property
    def primary(self) -> Replica:
        for replica in self.replicas:
            if replica.is_primary:
                return replica
        raise FabricError(f"service {self.service_id} has no primary")

    @property
    def secondaries(self) -> List[Replica]:
        return [r for r in self.replicas if not r.is_primary]


class ServiceFabricCluster:
    """A cluster of nodes under one PLB, with a Naming Service.

    Args:
        node_count: number of data-plane nodes.
        capacities: per-node logical capacities (already density-scaled
            via :meth:`NodeCapacities.scaled_cpu` by the caller).
        plb_rng: random stream for the PLB's annealing.
        use_annealing: False switches the PLB to greedy placement.
        downtime_rng: dedicated stream for failover-downtime draws.
            Defaults to ``plb_rng`` for backward compatibility; callers
            that care about stream isolation (the tenant ring) pass the
            named ``("failover", "downtime")`` substream so downtime
            sampling never perturbs placement decisions.
        backend: an orchestrator-backend name, a key of
            :data:`BACKENDS`. The default
            ``"annealing"`` PLB reproduces the paper's control plane;
            the attribute keeps its historical name ``plb`` whichever
            backend is selected.
    """

    def __init__(self, node_count: int, capacities: NodeCapacities,
                 plb_rng: np.random.Generator,
                 use_annealing: bool = True,
                 downtime_rng: np.random.Generator = None,
                 backend: str = "annealing") -> None:
        if node_count <= 0:
            raise FabricError(f"node_count must be positive, got {node_count}")
        #: Every node's loads and availability, stored only here; each
        #: node reads and writes its own row and availability cell
        #: (docs/ORCHESTRATORS.md, "The load matrix").
        self.matrix = LoadMatrix([capacities] * node_count)
        self.nodes: List[Node] = [
            Node(node_id, capacities, row=self.matrix.loads[node_id],
                 available=self.matrix.available[node_id:node_id + 1])
            for node_id in range(node_count)]
        self.naming = NamingService()
        self._downtime_rng = downtime_rng if downtime_rng is not None \
            else plb_rng
        self._services: Dict[str, ServiceRecord] = {}
        backend_class = BACKENDS.get(backend)
        if backend_class is None:
            raise FabricError(
                f"unknown orchestrator backend '{backend}' "
                f"(known: {', '.join(BACKENDS)})")
        self.plb = backend_class(self, plb_rng, use_annealing=use_annealing,
                                 downtime_rng=downtime_rng)
        #: Per-metric totals are static after construction (the node
        #: list and every node's capacities never change), but they are
        #: consulted in every telemetry frame and KPI assembly — so
        #: compute each metric once, lazily.
        self._capacity_cache: Dict[str, float] = {}
        self._replica_ids = itertools.count(1)
        self._replicas_by_id: Dict[int, Replica] = {}
        self.failovers: List[FailoverRecord] = []  # totolint: fleet-scale
        self._failover_listeners: List[FailoverListener] = []
        #: In-flight replica rebuilds: service id -> finish timestamp.
        self._rebuilding_until: Dict[str, int] = {}
        #: Replicas displaced by a node failure still waiting for
        #: capacity (with the downtime booked at failure time).
        self._pending: List[PendingReplica] = []

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def service_count(self) -> int:
        return len(self._services)

    def services(self) -> Iterator[ServiceRecord]:
        return iter(list(self._services.values()))

    def service(self, service_id: str) -> ServiceRecord:
        record = self._services.get(service_id)
        if record is None:
            raise FabricError(f"unknown service '{service_id}'")
        return record

    def has_service(self, service_id: str) -> bool:
        return service_id in self._services

    def replicas(self) -> Iterator[Replica]:
        """All replicas across all services (stable id order)."""
        return iter([self._replicas_by_id[rid]
                     for rid in sorted(self._replicas_by_id)])

    def replica(self, replica_id: int) -> Replica:
        replica = self._replicas_by_id.get(replica_id)
        if replica is None:
            raise UnknownReplicaError(f"unknown replica {replica_id}")
        return replica

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    # -- aggregate capacity views --------------------------------------

    def total_capacity(self, metric: str) -> float:
        cached = self._capacity_cache.get(metric)
        if cached is None:
            cached = fold_sum(self.matrix.capacity[:, METRIC_COLUMN[metric]])
            self._capacity_cache[metric] = cached
        return cached

    def total_load(self, metric: str) -> float:
        """Sum of every node's ``metric`` load, folded in node order."""
        return fold_sum(self.matrix.loads[:, METRIC_COLUMN[metric]])

    def free_capacity(self, metric: str) -> float:
        return self.total_capacity(metric) - self.total_load(metric)

    def reserved_cores(self) -> float:
        """Cluster-wide reserved CPU cores (the paper's headline KPI)."""
        return self.total_load(CPU_CORES)

    def disk_usage_gb(self) -> float:
        """Cluster-wide reported disk usage."""
        return self.total_load(DISK_GB)

    # ------------------------------------------------------------------
    # Service lifecycle
    # ------------------------------------------------------------------

    def create_service(self, service_id: str, replica_count: int,
                       cpu_cores: float, initial_loads: Dict[str, float],
                       now: int) -> ServiceRecord:
        """Place a new service's replicas across distinct nodes.

        ``initial_loads`` are per-replica dynamic loads (disk/memory);
        the CPU reservation is added automatically. Raises
        :class:`PlacementError` when the cluster cannot host it — the
        control plane surfaces that as a creation redirect.
        """
        if service_id in self._services:
            raise FabricError(f"service '{service_id}' already exists")
        if replica_count < 1:
            raise FabricError(f"replica_count must be >= 1, got {replica_count}")
        loads = dict(initial_loads)
        loads[CPU_CORES] = cpu_cores
        try:
            node_ids = self.plb.find_placement(service_id, replica_count,
                                               loads)
        except PlacementError:
            # SF-style balancing: relocate existing replicas to make
            # room, then retry the placement once.
            moves = self.plb.make_room(now, service_id, replica_count,
                                       loads)
            self._record_moves(moves)
            node_ids = self.plb.find_placement(service_id, replica_count,
                                               loads)

        record = ServiceRecord(service_id=service_id,
                               replica_count=replica_count,
                               cpu_cores=cpu_cores, created_at=now)
        for index, node_id in enumerate(node_ids):
            role = ReplicaRole.PRIMARY if index == 0 else ReplicaRole.SECONDARY
            replica = Replica(replica_id=next(self._replica_ids),
                              service_id=service_id, role=role,
                              reported=dict(loads))
            self.nodes[node_id].attach(replica)
            record.replicas.append(replica)
            self._replicas_by_id[replica.replica_id] = replica
        self._services[service_id] = record
        # Naming-registration hook: a no-op for the annealing backend
        # (the seed's metastore traffic is pinned byte for byte), an
        # endpoints write for the Kubernetes-style one.
        self.plb.register_service(self.naming, service_id, node_ids)
        return record

    def drop_service(self, service_id: str) -> ServiceRecord:
        """Remove all replicas of a service and free their capacity."""
        record = self.service(service_id)
        for replica in record.replicas:
            if replica.node_id is not None:
                self.nodes[replica.node_id].detach(replica)
            del self._replicas_by_id[replica.replica_id]
        del self._services[service_id]
        self._rebuilding_until.pop(service_id, None)
        self.plb.unregister_service(self.naming, service_id)
        return record

    # ------------------------------------------------------------------
    # Load reporting and balancing
    # ------------------------------------------------------------------

    def report_load(self, replica: Replica, loads: Dict[str, float]) -> None:
        """A replica reports its (possibly Toto-fabricated) loads."""
        if replica.node_id is None:
            raise UnknownReplicaError(
                f"replica {replica.replica_id} is not placed")
        self.nodes[replica.node_id].apply_report(replica, loads)

    def sweep_violations(self, now: int) -> List[FailoverRecord]:
        """Fix disk-capacity violations; returns this sweep's failovers."""
        self._retry_pending(now)
        records = self.plb.fix_violations(now, metric=DISK_GB)
        self._record_moves(records)
        return records

    def bootstrap_spill(self, service_id: str, replica_count: int,
                        cpu_cores: float, initial_loads: Dict[str, float],
                        now: int) -> List[FailoverRecord]:
        """Swap replicas between nodes to unwedge a bootstrap placement.

        Called by the control plane only on the bootstrap path, after
        ``create_service`` (including its make-room retry) has failed:
        the backend swaps a disk-heavy replica off a CPU-rich node
        against a disk-light one from a disk-rich node until the new
        service fits (:meth:`OrchestratorBackend.bootstrap_spill`).
        Returns the planned moves performed; the caller retries the
        create.
        """
        loads = dict(initial_loads)
        loads[CPU_CORES] = cpu_cores
        records = self.plb.bootstrap_spill(now, service_id, replica_count,
                                           loads)
        self._record_moves(records)
        return records

    # ------------------------------------------------------------------
    # Node failures (§5.2's "intermittent failures")
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int, now: int) -> List[FailoverRecord]:
        """Take a node down; its replicas are rebuilt elsewhere.

        Replicas that fit on surviving nodes move immediately; the rest
        go *pending* and are retried every sweep. A pending replica of
        a single-replica service is a customer outage until placed.
        """
        node = self.nodes[node_id]
        if not node.available:
            raise FabricError(f"node {node_id} is already down")
        self.matrix.available[node_id] = False
        records: List[FailoverRecord] = []
        for replica in list(node.replicas):
            service_id = replica.service_id
            record = self.service(service_id)
            role_at_failure = replica.role
            # Downtime semantics match a reactive failover: single
            # replica = reattach window, lost primary = promotion.
            downtime = failover_downtime(replica, record.replica_count,
                                         self._downtime_rng)
            node.detach(replica)
            if (role_at_failure is ReplicaRole.PRIMARY
                    and record.replica_count > 1):
                self.promote_new_primary(service_id,
                                         exclude_replica=replica.replica_id)
                replica.role = ReplicaRole.SECONDARY
            target = self.plb.choose_target(replica, node)
            if target is None:
                self._pending.append(PendingReplica(
                    replica, node, now, downtime, role_at_failure))
                continue
            target.attach(replica)
            rebuild = rebuild_seconds(replica.load(DISK_GB),
                                      record.replica_count)
            if record.replica_count > 1 and rebuild > 0:
                self.set_rebuilding(service_id,
                                    int(now + rebuild))
            records.append(FailoverRecord(
                time=now, service_id=service_id,
                replica_id=replica.replica_id, role=role_at_failure,
                from_node=node_id, to_node=target.node_id,
                metric=CPU_CORES, cores_moved=replica.cpu_cores,
                disk_moved_gb=replica.load(DISK_GB),
                downtime_seconds=downtime, rebuild_seconds=rebuild,
                reason=REASON_NODE_FAILURE))
        self._record_moves(records)
        return records

    def restore_node(self, node_id: int) -> None:
        """Bring a failed node back (empty; the PLB refills it)."""
        self.matrix.available[node_id] = True

    @property
    def pending_replicas(self) -> int:
        """Displaced replicas still waiting for capacity."""
        return len(self._pending)

    def _retry_pending(self, now: int) -> None:
        """Try to place replicas displaced by node failures.

        Single-replica services accrue the full waiting time as
        downtime — the database simply is not running anywhere.
        """
        if not self._pending:
            return
        still_pending: List[PendingReplica] = []
        records: List[FailoverRecord] = []
        for pending in self._pending:
            replica, source, since, downtime, role = pending
            service_id = replica.service_id
            if not self.has_service(service_id):
                continue  # dropped while pending
            target = self.plb.choose_target(replica, source)
            if target is None:
                still_pending.append(pending)
                continue
            target.attach(replica)
            record = self.service(service_id)
            total_downtime = downtime
            if record.replica_count == 1:
                total_downtime += float(now - since)
            records.append(FailoverRecord(
                time=now, service_id=service_id,
                replica_id=replica.replica_id, role=role,
                from_node=source.node_id, to_node=target.node_id,
                metric=CPU_CORES, cores_moved=replica.cpu_cores,
                disk_moved_gb=replica.load(DISK_GB),
                downtime_seconds=total_downtime,
                rebuild_seconds=rebuild_seconds(replica.load(DISK_GB),
                                                record.replica_count),
                reason=REASON_NODE_FAILURE))
        self._pending = still_pending
        self._record_moves(records)

    def _record_moves(self, records: List[FailoverRecord]) -> None:
        """Log replica moves and notify listeners (downtime accounting)."""
        self.failovers.extend(records)
        for record in records:
            for listener in self._failover_listeners:
                listener(record)

    def add_failover_listener(self, listener: FailoverListener) -> None:
        """Register a callback invoked for every failover record."""
        self._failover_listeners.append(listener)

    # ------------------------------------------------------------------
    # Placement state the backends read and update during moves
    # ------------------------------------------------------------------

    def replica_count_of(self, service_id: str) -> int:
        return self.service(service_id).replica_count

    def service_nodes(self, service_id: str) -> List[int]:
        """Ids of the nodes hosting a placed replica of ``service_id``.

        The anti-affinity set of a placement scan: at most four nodes,
        none for a service not created yet.
        """
        record = self._services.get(service_id)
        if record is None:
            return []
        return [replica.node_id for replica in record.replicas
                if replica.node_id is not None]

    def promote_new_primary(self, service_id: str,
                            exclude_replica: int) -> None:
        """Promote a surviving secondary after the primary is moved."""
        record = self.service(service_id)
        survivors = [r for r in record.replicas
                     if r.replica_id != exclude_replica]
        if not survivors:
            return
        # Promote the secondary on the least CPU-loaded node for
        # determinism; ties break on replica id.
        def load_key(replica: Replica) -> tuple:
            node = self.nodes[replica.node_id] if replica.node_id is not None \
                else None
            util = node.utilization(CPU_CORES) if node else float("inf")
            return (util, replica.replica_id)

        promoted = min(survivors, key=load_key)
        promoted.role = ReplicaRole.PRIMARY

    def rebuilding_until(self, service_id: str) -> int:
        """Finish time of the service's in-flight rebuild (0 if none)."""
        return self._rebuilding_until.get(service_id, 0)

    def set_rebuilding(self, service_id: str, until: int) -> None:
        """Record that a replica rebuild runs until ``until``."""
        current = self._rebuilding_until.get(service_id, 0)
        self._rebuilding_until[service_id] = max(current, int(until))

    # ------------------------------------------------------------------

    def validate_invariants(self) -> None:
        """Assert structural invariants; used by tests and debug runs.

        * every replica is attached to exactly one node,
        * replicas of one service sit on distinct nodes,
        * every multi-replica service has exactly one primary,
        * node aggregates equal the sum of replica reports.
        """
        pending_ids = {replica.replica_id
                       for replica, *_ in self._pending}
        for record in self._services.values():
            node_ids = [r.node_id for r in record.replicas
                        if r.replica_id not in pending_ids]
            if None in node_ids:
                raise FabricError(
                    f"service {record.service_id} has an unplaced replica")
            if len(set(node_ids)) != len(node_ids):
                raise FabricError(
                    f"service {record.service_id} violates anti-affinity")
            primaries = [r for r in record.replicas if r.is_primary]
            if len(primaries) != 1:
                raise FabricError(
                    f"service {record.service_id} has {len(primaries)} primaries")
        for node in self.nodes:
            for metric in (CPU_CORES, DISK_GB, MEMORY_GB):
                expected = sum(r.load(metric) for r in node.replicas)
                if abs(expected - node.load(metric)) > 1e-6:
                    raise FabricError(
                        f"node {node.node_id} aggregate {metric} drifted: "
                        f"{node.load(metric)} != {expected}")
