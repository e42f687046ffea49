"""A Kubernetes-style orchestrator backend.

Second :class:`~repro.fabric.backend.OrchestratorBackend`: the same
cluster, databases, and load models, scheduled the way a Kubernetes
control plane would (Turin et al., "Predicting Resource Consumption of
Kubernetes Container Systems", PAPERS.md):

* a replica's *requests* are its loads, taken straight from the
  existing models (the SLO's CPU reservation, the database's initial
  disk, the cold buffer-pool memory); no *limit* is enforced, because
  the CPU governor (:mod:`repro.sqldb.governance`) plays the cgroup
  throttle;
* placement is a feasibility filter (``PodFitsResources``) followed by
  deterministic least-requested scoring — no annealing, no RNG;
* make-room is *preemption*: standard-priority replicas (General
  Purpose) are evicted before premium ones (multi-replica Business
  Critical), highest request pressure first so the fewest evictions
  clear the shortfall;
* capacity-violation relief spreads the evicted replicas across
  receiving nodes with an EPLB-style proportional allocation plus LPT
  assignment (SNIPPETS.md #2): targets earn quotas in proportion to
  their free capacity, then victims land largest-first on the most
  capable remaining target.

Determinism: every scheduling decision is a pure function of cluster
state. The only stochastic draw on any code path is the shared
failover-downtime model, which the base class's move mechanics take
from the named ``("failover", "downtime")`` substream — so DetSan and
the substream registry see nothing new.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NamingUnavailableError, PlacementError
from repro.fabric.backend import OrchestratorBackend
from repro.fabric.failover import REASON_MAKE_ROOM, FailoverRecord
from repro.fabric.metrics import CPU_CORES, DISK_GB, MEMORY_GB
from repro.fabric.node import METRIC_COLUMN, Node
from repro.fabric.plb import (
    MAX_MAKE_ROOM_MOVES,
    MAX_MOVES_PER_SWEEP,
    PlbStats,
)
from repro.fabric.replica import Replica

if TYPE_CHECKING:  # pragma: no cover — import cycle is type-only
    from repro.fabric.cluster import ServiceFabricCluster

#: Resources the scheduler scores and bin-packs against. CPU and disk
#: are the enforced metrics; memory participates the way kube-scheduler
#: treats it — a request that must fit allocatable capacity.
SCHEDULED_METRICS: Tuple[str, ...] = (CPU_CORES, DISK_GB, MEMORY_GB)

#: Naming-service key prefix for the backend's endpoint records.
ENDPOINTS_PREFIX = "endpoints/"


class KubernetesBackend(OrchestratorBackend):
    """Requests bin-packing with priority preemption.

    Args:
        cluster: the cluster facade (nodes, load matrix, placements).
        rng: the backend's decision stream. Accepted so every backend
            is built the same way, but never drawn from —
            kube-scheduler scoring is deterministic.
        downtime_rng: the cluster's failover-downtime stream, consumed
            by the base class's move mechanics.
        use_annealing: the annealing PLB's knob; accepted and ignored.
    """

    def __init__(self, cluster: "ServiceFabricCluster",
                 rng: np.random.Generator,
                 downtime_rng: np.random.Generator,
                 use_annealing: bool = True) -> None:
        super().__init__(cluster, rng, downtime_rng)
        self.stats = PlbStats()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _scores(self, node_ids: np.ndarray,
                requests: Dict[str, float]) -> np.ndarray:
        """Least-requested score of each node after adding ``requests``.

        Mean free fraction across the scheduled resources, as
        kube-scheduler's ``LeastRequestedPriority`` computes it (up to
        its ×10 scaling); higher is better, so placements spread. The
        fractions are summed from 0.0 in ``SCHEDULED_METRICS`` order,
        the arithmetic of a per-node loop, cell for cell.
        """
        matrix = self._matrix
        total = np.zeros(node_ids.size)
        for metric in SCHEDULED_METRICS:
            column = METRIC_COLUMN[metric]
            capacity = matrix.capacity[node_ids, column]
            free = capacity - matrix.loads[node_ids, column]
            total = total + (free - requests.get(metric, 0.0)) / capacity
        return total / len(SCHEDULED_METRICS)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def find_placement(self, service_id: str, replica_count: int,
                       loads: Dict[str, float]) -> List[int]:
        """Filter + score, as the scheduler framework phases them; the
        replica's requests are its ``loads``."""
        feasible = self._feasible_nodes(service_id, loads)
        if feasible.size < replica_count:
            self.stats.placement_failures += 1
            raise PlacementError(
                f"service {service_id} needs {replica_count} nodes, "
                f"only {feasible.size} feasible")
        scores = self._scores(feasible, loads)
        scored = feasible[np.lexsort((feasible, -scores))]
        self.stats.placements += 1
        return scored[:replica_count].tolist()

    def choose_target(self, replica: Replica,
                      source: Node) -> Optional[Node]:
        """Highest-scoring feasible node for a displaced replica;
        ties go to the lowest node id."""
        candidates = self._target_candidates(replica, source)
        if candidates.size == 0:
            return None
        best = np.argmax(self._scores(candidates, replica.reported))
        return self._nodes[int(candidates[best])]

    # ------------------------------------------------------------------
    # Preemption (make-room)
    # ------------------------------------------------------------------

    def make_room(self, now: int, service_id: str, replica_count: int,
                  loads: Dict[str, float]) -> List[FailoverRecord]:
        """Evict lower-priority replicas until the placement fits.

        Kubernetes preemption semantics: a pending pod may displace
        pods of lower priority; the victims are rescheduled elsewhere
        (here: moved, since the simulation has no pending queue for
        evictees).
        """
        records: List[FailoverRecord] = []
        for _ in range(MAX_MAKE_ROOM_MOVES):
            feasible = self._feasible_nodes(service_id, loads)
            if feasible.size >= replica_count:
                break
            move = self._preempt_once(now, service_id, loads)
            if move is None:
                break
            records.append(move)
        return records

    def _preempt_once(self, now: int, service_id: str,
                      loads: Dict[str, float]
                      ) -> Optional[FailoverRecord]:
        """Evict one replica from the node nearest feasibility.

        Preemption frees requests, and only the CPU reservation is a
        movable request, so nodes blocked on disk or memory are skipped.
        """
        for node_id in self._make_room_candidates(service_id, loads):
            node = self._nodes[node_id]
            victims = sorted(
                (r for r in node.replicas if r.cpu_cores > 0),
                key=self._eviction_order)
            for victim in victims:
                target = self.choose_target(victim, node)
                if target is None:
                    continue
                record = self._move(now, victim, node, target, CPU_CORES,
                                    reason=REASON_MAKE_ROOM)
                self.stats.make_room_moves += 1
                return record
        return None

    def _eviction_order(self, replica: Replica) -> Tuple[bool, float, int]:
        """Victim ranking: priority class, then request pressure.

        Multi-replica (Business Critical) services run at premium
        priority and are preempted last; within a class the highest
        CPU request goes first so the fewest evictions clear a
        shortfall.
        """
        premium = self._cluster.replica_count_of(replica.service_id) > 1
        return (premium, -replica.cpu_cores, replica.replica_id)

    # ------------------------------------------------------------------
    # Capacity violations (node-pressure eviction)
    # ------------------------------------------------------------------

    def fix_violations(self, now: int,
                       metric: str = DISK_GB) -> List[FailoverRecord]:
        """Node-pressure eviction with EPLB-style victim spreading."""
        records: List[FailoverRecord] = []
        moves_left = MAX_MOVES_PER_SWEEP
        for node in self._nodes:
            if moves_left <= 0:
                break
            if not node.available or not node.violates(metric):
                continue
            victims = self._select_victims(node, metric)
            moved = self._spread_victims(now, node, victims[:moves_left],
                                         metric)
            records.extend(moved)
            moves_left -= len(moved)
            if node.violates(metric) and not moved:
                self.stats.stuck_violations += 1
        return records

    def _select_victims(self, node: Node, metric: str) -> List[Replica]:
        """Smallest victim set that clears the node's excess.

        Ranked like kubelet node-pressure eviction: standard priority
        before premium, then the largest consumer of the pressured
        resource first.
        """
        excess = node.load(metric) - node.capacities.of(metric)
        cluster = self._cluster
        movable = sorted(
            (r for r in node.replicas if r.load(metric) > 0.0),
            key=lambda r: (cluster.replica_count_of(r.service_id) > 1,
                           -r.load(metric), r.replica_id))
        victims: List[Replica] = []
        for replica in movable:
            if excess <= 0:
                break
            victims.append(replica)
            excess -= replica.load(metric)
        return victims

    def _spread_victims(self, now: int, source: Node,
                        victims: List[Replica],
                        metric: str) -> List[FailoverRecord]:
        """EPLB-style proportional quotas + LPT assignment.

        Phase 1 hands each candidate target a victim quota proportional
        to its free capacity on the pressured resource — the snippet's
        heap refinement, computed as repeated deterministic argmax of
        ``weight / (quota + 1)``. Phase 2 assigns victims largest-first
        (LPT) to the feasible quota-holding target with the most
        remaining free capacity; a victim whose quota targets cannot
        take it falls back to plain target selection.
        """
        targets = [n for n in self._nodes
                   if n.available and n.node_id != source.node_id]
        if not targets or not victims:
            return []
        weights = [max(n.free(metric), 0.0) for n in targets]
        quotas = [0] * len(targets)
        if sum(weights) > 0.0:
            for _ in victims:
                best = 0
                best_share = -1.0
                for index, weight in enumerate(weights):
                    share = weight / (quotas[index] + 1)
                    if share > best_share:
                        best = index
                        best_share = share
                quotas[best] += 1
        ordered = sorted(victims,
                         key=lambda r: (-r.load(metric), r.replica_id))
        records: List[FailoverRecord] = []
        for victim in ordered:
            fits = self._fit_mask(self._matrix.free(), victim.reported)
            chosen: Optional[int] = None
            chosen_free = -1.0
            for index, target in enumerate(targets):
                if quotas[index] <= 0:
                    continue
                if target.hosts_service(victim.service_id):
                    continue
                if not fits[target.node_id]:
                    continue
                free = target.free(metric)
                if free > chosen_free:
                    chosen = index
                    chosen_free = free
            if chosen is not None:
                quotas[chosen] -= 1
                target = targets[chosen]
            else:
                fallback = self.choose_target(victim, source)
                if fallback is None:
                    continue
                target = fallback
            records.append(self._move(now, victim, source, target,
                                      metric))
        return records

    # ------------------------------------------------------------------
    # Naming registration (k8s Endpoints analogue)
    # ------------------------------------------------------------------

    def register_service(self, naming, service_id: str,
                         node_ids: Sequence[int]) -> None:
        """Publish the placed replica set as an endpoints record.

        Best-effort: chaos can gate metastore writes, and a lost
        endpoint write must not fail the placement — a real control
        loop would reconcile it asynchronously.
        """
        try:
            naming.put(ENDPOINTS_PREFIX + service_id,
                       tuple(int(node_id) for node_id in node_ids))
        except NamingUnavailableError:
            pass

    def unregister_service(self, naming, service_id: str) -> None:
        """Drop the endpoints record (local cleanup, never gated)."""
        naming.delete_if_exists(ENDPOINTS_PREFIX + service_id)

