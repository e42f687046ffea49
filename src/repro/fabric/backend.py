"""Orchestrator backends: the contract and the shared mechanics.

The paper's efficiency numbers are properties of one fixed control
plane — the simulated-annealing PLB plus Service Fabric's naming and
failover machinery (§3.1). ROADMAP item 3 calls for comparing
*orchestration policies*, not just hardware, so the surfaces the rest
of the system actually exercises are extracted into
:class:`OrchestratorBackend`:

* ``find_placement`` / ``make_room`` — admission-time placement
  (:meth:`repro.fabric.cluster.ServiceFabricCluster.create_service`);
* ``fix_violations`` — the periodic capacity-violation sweep;
* ``choose_target`` — failover target selection (node failures and
  pending-replica retries);
* ``register_service`` / ``unregister_service`` — naming-registration
  hooks (the annealing backend registers nothing, preserving the
  seed's metastore traffic byte for byte; the Kubernetes-style backend
  publishes endpoint records);
* ``bootstrap_spill`` — the swap-based last resort for a wedged
  bootstrap placement (shared mechanics, below).

Backends are listed by name in :data:`repro.fabric.cluster.BACKENDS`
and selected per ring via ``TenantRingConfig.backend`` /
``ClusterTemplate.backend`` / ``repro run --backend``:

* ``annealing`` — :class:`repro.fabric.plb.PlacementAndLoadBalancer`,
  the reference implementation (byte-identical to the pre-refactor
  seed);
* ``k8s`` — :class:`repro.fabric.k8s.KubernetesBackend`, a
  Kubernetes-style scheduler (requests/limits, least-requested
  scoring, priority preemption; docs/ORCHESTRATORS.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fabric.failover import (
    REASON_CAPACITY_VIOLATION,
    REASON_MAKE_ROOM,
    FailoverRecord,
    failover_downtime,
    rebuild_seconds,
)
from repro.fabric.metrics import CPU_CORES, DISK_GB, MEMORY_GB
from repro.fabric.node import (
    CPU_COLUMN,
    DISK_COLUMN,
    METRIC_COLUMN,
    LoadMatrix,
    Node,
)
from repro.fabric.replica import Replica, ReplicaRole

if TYPE_CHECKING:  # pragma: no cover — import cycle is type-only
    from repro.fabric.cluster import ServiceFabricCluster
    from repro.fabric.plb import PlbStats

#: Cap on replica *swaps* the bootstrap spill performs per blocked
#: placement; one swap normally frees hundreds of GB and dozens of
#: cores on the freed node, so the cap is generous.
MAX_SPILL_SWAPS = 8

#: Deterministic scan bounds for the spill's swap search. The search
#: runs only when bootstrap placement is already wedged (rare), but at
#: 640 nodes an unbounded quadruple loop could still scan millions of
#: replica pairs; the bounds keep the scan proportional to the cluster
#: width while the sort orders put the most promising pairs first.
_SPILL_HOST_SCAN = 16
_SPILL_REPLICA_SCAN = 4
_SPILL_DONOR_SCAN = 32
_SPILL_INCOMING_SCAN = 8


class OrchestratorBackend:
    """The contract every orchestrator backend implements.

    Policy methods (placement, balancing, target selection) are
    abstract; the mechanics every policy shares — feasibility checks,
    the replica-move bookkeeping with its downtime/rebuild accounting,
    and the bootstrap spill — live here so backends differ only where
    their policies do.

    Backends read node loads through the cluster's
    :class:`~repro.fabric.node.LoadMatrix`: every whole-cluster scan is
    one vectorized pass over it, computing free space with the same
    ``capacity - load`` subtraction ``Node.free`` does and ordering
    nodes with ``np.lexsort``, node id last, so each decision is the
    one a loop over the nodes would make. Concrete backends also set
    ``self.stats`` (a :class:`repro.fabric.plb.PlbStats`).

    Every method reaches the cluster one way, through ``self._cluster``.

    Args:
        cluster: the cluster facade (its nodes, load matrix and
            service placements).
        rng: the backend's decision stream.
        downtime_rng: the shared ``("failover", "downtime")``
            substream; defaults to ``rng``.
    """

    #: The backend's key in :data:`repro.fabric.cluster.BACKENDS`.
    name: str = ""

    stats: "PlbStats"

    def __init__(self, cluster: "ServiceFabricCluster",
                 rng: np.random.Generator,
                 downtime_rng: Optional[np.random.Generator] = None) -> None:
        self._cluster = cluster
        self._nodes: List[Node] = cluster.nodes
        self._matrix: LoadMatrix = cluster.matrix
        self._rng = rng
        self._downtime_rng = downtime_rng if downtime_rng is not None else rng

    # ------------------------------------------------------------------
    # Policy surface (implemented by each backend)
    # ------------------------------------------------------------------

    def find_placement(self, service_id: str, replica_count: int,
                       loads: Dict[str, float]) -> List[int]:
        """Choose ``replica_count`` distinct node ids for a new service."""
        raise NotImplementedError

    def make_room(self, now: int, service_id: str, replica_count: int,
                  loads: Dict[str, float]) -> List[FailoverRecord]:
        """Relocate replicas so a blocked placement becomes feasible."""
        raise NotImplementedError

    def fix_violations(self, now: int,
                       metric: str = DISK_GB) -> List[FailoverRecord]:
        """Move replicas off nodes whose ``metric`` load exceeds capacity."""
        raise NotImplementedError

    def choose_target(self, replica: Replica,
                      source: Node) -> Optional[Node]:
        """Target selection for externally driven moves (node failures)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Naming hooks (the defaults register nothing)
    # ------------------------------------------------------------------

    def register_service(self, naming, service_id: str,
                         node_ids: Sequence[int]) -> None:
        """Called after a successful placement; may publish endpoints."""

    def unregister_service(self, naming, service_id: str) -> None:
        """Called after a service is dropped."""

    # ------------------------------------------------------------------
    # Shared mechanics
    # ------------------------------------------------------------------

    def _fit_mask(self, free: np.ndarray,
                  loads: Dict[str, float]) -> np.ndarray:
        """Per node: up, and every positive request within its free space.

        ``free`` is :meth:`LoadMatrix.free`. The test is written
        ``~(free < needed)``, not ``free >= needed``, so a NaN cell
        passes as it does in the scalar ``free < needed`` check.
        """
        mask = self._matrix.available.copy()
        for metric, column in METRIC_COLUMN.items():
            needed = loads.get(metric, 0.0)
            if needed > 0:
                mask &= ~(free[:, column] < needed)
        return mask

    def _feasible_nodes(self, service_id: str,
                        loads: Dict[str, float]) -> np.ndarray:
        """Ids, ascending, of the nodes that could host one more
        replica of the service (fit plus anti-affinity)."""
        mask = self._fit_mask(self._matrix.free(), loads)
        mask[self._cluster.service_nodes(service_id)] = False
        return np.flatnonzero(mask)

    def _target_candidates(self, replica: Replica,
                           source: Node) -> np.ndarray:
        """Ids, ascending, of the nodes that could receive ``replica``
        from ``source``."""
        mask = self._fit_mask(self._matrix.free(), replica.reported)
        mask[source.node_id] = False
        mask[self._cluster.service_nodes(replica.service_id)] = False
        return np.flatnonzero(mask)

    def _make_room_candidates(self, service_id: str,
                              loads: Dict[str, float]) -> List[int]:
        """Nodes that only CPU reservations keep from hosting the service.

        Not hosting it, not fitting it, not short of disk or memory
        (moving replicas off frees only their CPU reservations), and
        short of CPU; nearest first, i.e. by (CPU shortfall, node id).
        """
        free = self._matrix.free()
        mask = ~self._fit_mask(free, loads)
        for metric in (DISK_GB, MEMORY_GB):
            needed = loads.get(metric, 0.0)
            if needed > 0:
                mask &= ~(free[:, METRIC_COLUMN[metric]] < needed)
        shortfall = loads.get(CPU_CORES, 0.0) - free[:, CPU_COLUMN]
        mask &= shortfall > 0
        mask[self._cluster.service_nodes(service_id)] = False
        ids = np.flatnonzero(mask)
        return ids[np.lexsort((ids, shortfall[ids]))].tolist()

    def _most_free_first(self, ids: np.ndarray, column: int) -> np.ndarray:
        """``ids`` by free capacity in ``column``, most first, then id."""
        matrix = self._matrix
        free = matrix.capacity[ids, column] - matrix.loads[ids, column]
        return ids[np.lexsort((ids, -free))]

    def _move(self, now: int, replica: Replica, source: Node, target: Node,
              metric: str,
              reason: str = REASON_CAPACITY_VIOLATION) -> FailoverRecord:
        """Execute the move and produce its record."""
        cluster = self._cluster
        replica_count = cluster.replica_count_of(replica.service_id)
        downtime = failover_downtime(replica, replica_count,
                                     self._downtime_rng,
                                     planned=reason == REASON_MAKE_ROOM)
        rebuild = rebuild_seconds(replica.load(DISK_GB), replica_count)
        role_at_move = replica.role

        # Rebuild-window vulnerability: while a previous move's replica
        # rebuild is still copying data, the service has no fully built
        # secondary. Forcing the *primary* out during that window means
        # waiting for the rebuild to finish — minutes of unavailability
        # instead of a quick promotion. This is what makes failover
        # storms (many moves hitting the same services in a short span)
        # so much more damaging than isolated failovers.
        rebuilding_until = cluster.rebuilding_until(replica.service_id)
        if (replica_count > 1 and role_at_move is ReplicaRole.PRIMARY
                and rebuilding_until > now
                and reason == REASON_CAPACITY_VIOLATION):
            downtime = max(downtime,
                           float(min(rebuilding_until - now, 3600)))
        if replica_count > 1 and rebuild > 0:
            cluster.set_rebuilding(replica.service_id,
                                   int(now + rebuild))

        source.detach(replica)
        # A moved primary of a multi-replica service is demoted: one of
        # the surviving secondaries is promoted in its place (§3.1).
        if role_at_move is ReplicaRole.PRIMARY and replica_count > 1:
            cluster.promote_new_primary(replica.service_id,
                                        exclude_replica=replica.replica_id)
            replica.role = ReplicaRole.SECONDARY
        target.attach(replica)
        self.stats.moves += 1

        return FailoverRecord(
            time=now,
            service_id=replica.service_id,
            replica_id=replica.replica_id,
            role=role_at_move,
            from_node=source.node_id,
            to_node=target.node_id,
            metric=metric,
            cores_moved=replica.cpu_cores,
            disk_moved_gb=replica.load(DISK_GB),
            downtime_seconds=downtime,
            rebuild_seconds=rebuild,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Bootstrap spill (shared across backends)
    # ------------------------------------------------------------------

    def bootstrap_spill(self, now: int, service_id: str,
                        replica_count: int,
                        loads: Dict[str, float]) -> List[FailoverRecord]:
        """Swap-based last resort for a wedged bootstrap placement.

        Big-first packing to a 90% core target on a wide ring can
        wedge: by the 2-core tail, every node with free cores has no
        free disk and every node with free disk has no free cores, so
        neither a plain retry nor ``make_room`` (which only sheds CPU
        reservations and skips disk-blocked nodes) can open a slot.
        The deadlock is broken by *swapping* a disk-heavy replica off a
        CPU-rich node against a disk-light replica from a disk-rich
        node: both nodes stay within capacity, anti-affinity holds on
        both ends, and the CPU-rich node ends up feasible for the new
        service. Both legs are planned (make-room) moves, so their
        downtime draws come from the shared failover-downtime substream
        and book only graceful-drain seconds.

        Only the bootstrap path calls this; steady-state infeasibility
        must keep producing redirects — that is the KPI the paper
        measures (§5.3.1).
        """
        records: List[FailoverRecord] = []
        for _ in range(MAX_SPILL_SWAPS):
            if self._feasible_nodes(service_id, loads).size >= replica_count:
                break
            swap = self._one_spill_swap(now, service_id, loads)
            if swap is None:
                break
            records.extend(swap)
        return records

    def _one_spill_swap(self, now: int, service_id: str,
                        loads: Dict[str, float]
                        ) -> Optional[List[FailoverRecord]]:
        """One feasibility-restoring swap, or ``None`` if no pair exists.

        Deterministic scan: hosts (the nodes to free up) are ordered by
        free CPU descending — the nodes closest to hosting the new
        replica once their disk is relieved — and donors by free disk
        descending, so the most promising pairs are probed first.
        """
        matrix = self._matrix
        free = matrix.free()
        host_mask = (~self._fit_mask(free, loads) & matrix.available
                     & (free[:, CPU_COLUMN] >= loads.get(CPU_CORES, 0.0)))
        host_mask[self._cluster.service_nodes(service_id)] = False
        hosts = self._most_free_first(np.flatnonzero(host_mask), CPU_COLUMN)
        donor_ids = self._most_free_first(np.flatnonzero(matrix.available),
                                          DISK_COLUMN)
        donors = [self._nodes[node_id]
                  for node_id in donor_ids[:_SPILL_DONOR_SCAN].tolist()]
        for host_id in hosts[:_SPILL_HOST_SCAN].tolist():
            host = self._nodes[host_id]
            outgoing = sorted(
                (r for r in host.replicas
                 if r.load(DISK_GB) > 0.0),
                key=_spill_outgoing_order)
            for r_out in outgoing[:_SPILL_REPLICA_SCAN]:
                for donor in donors:
                    if donor.node_id == host.node_id:
                        continue
                    if donor.hosts_service(r_out.service_id):
                        continue
                    incoming = sorted(donor.replicas,
                                      key=_spill_incoming_order)
                    for r_in in incoming[:_SPILL_INCOMING_SCAN]:
                        if host.hosts_service(r_in.service_id):
                            continue
                        if not self._swap_restores(host, donor, r_out,
                                                   r_in, loads):
                            continue
                        first = self._move(now, r_out, host, donor,
                                           DISK_GB, reason=REASON_MAKE_ROOM)
                        second = self._move(now, r_in, donor, host,
                                            CPU_CORES, reason=REASON_MAKE_ROOM)
                        self.stats.make_room_moves += 2
                        return [first, second]
        return None

    def _swap_restores(self, host: Node, donor: Node, r_out: Replica,
                       r_in: Replica, loads: Dict[str, float]) -> bool:
        """Post-swap feasibility: host fits ``loads``, donor stays legal."""
        for metric in (CPU_CORES, DISK_GB, MEMORY_GB):
            delta = r_out.load(metric) - r_in.load(metric)
            if host.free(metric) + delta < loads.get(metric, 0.0):
                return False
            if donor.free(metric) - delta < 0.0:
                return False
        return True


# ----------------------------------------------------------------------
# Sort keys (module-level so the spill scan builds no closures)
# ----------------------------------------------------------------------

def _spill_outgoing_order(replica: Replica) -> Tuple[float, int]:
    return (-replica.load(DISK_GB), replica.replica_id)


def _spill_incoming_order(replica: Replica) -> Tuple[float, int]:
    return (replica.load(DISK_GB), replica.replica_id)

