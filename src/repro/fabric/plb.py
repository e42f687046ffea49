"""The Placement and Load Balancer (PLB).

Paper §3.1: the PLB "decides the placement and movement of databases",
distributes a service's replicas across distinct nodes, aggregates the
dynamic load metrics, and — when a node's aggregate load exceeds the
node-level logical capacity — "will select a replica on the heavily
loaded node and move it to another node in the cluster" (a failover).

Placement search uses simulated annealing over candidate node sets, as
Service Fabric's PLB does (§5.2); a greedy mode exists as an ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.fabric.annealing import anneal
from repro.fabric.backend import OrchestratorBackend
from repro.fabric.failover import REASON_MAKE_ROOM, FailoverRecord
from repro.fabric.metrics import CPU_CORES, DISK_GB
from repro.fabric.node import CPU_COLUMN, DISK_COLUMN, Node, fold_sum
from repro.fabric.replica import Replica

if TYPE_CHECKING:  # pragma: no cover — import cycle is type-only
    from repro.fabric.cluster import ServiceFabricCluster

#: Hard cap on replica moves per violation sweep, so a cluster that is
#: globally out of disk cannot spin the balancer forever.
MAX_MOVES_PER_SWEEP = 64

#: Cap on proactive relocations the PLB performs to make room for one
#: new placement.
MAX_MAKE_ROOM_MOVES = 6


@dataclass
class PlbStats:
    """Counters exposed for telemetry and tests."""

    placements: int = 0
    placement_failures: int = 0
    moves: int = 0
    make_room_moves: int = 0
    stuck_violations: int = 0
    anneal_iterations: int = 0

    def as_metrics(self) -> Dict[str, int]:
        """Counter name -> value, in the field order declared above.

        The observability layer registers each entry as a cumulative
        counter (``toto_plb_<name>_total``, docs/OBSERVABILITY.md).
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}


class PlacementAndLoadBalancer(OrchestratorBackend):
    """Places replicas and fixes capacity violations by failing over.

    The reference :class:`~repro.fabric.backend.OrchestratorBackend`:
    simulated-annealing placement search as Service Fabric's PLB does
    it (§5.2), named ``"annealing"`` in
    :data:`repro.fabric.cluster.BACKENDS`.

    Args:
        cluster: the cluster facade (nodes, load matrix, placements).
        rng: the PLB's private random stream. The paper could not pin
            this seed across repeated runs; experiments model that by
            deriving it per run unless explicitly pinned.
        use_annealing: when False, placement is purely greedy
            (best-fit); this is the ablation mode.
        anneal_iterations: annealing budget per placement decision.
        downtime_rng: dedicated stream for failover-downtime draws;
            defaults to ``rng``. Separating the two keeps the annealing
            draw sequence — and therefore every placement — unchanged
            no matter how many downtime samples a run takes.
    """

    name = "annealing"

    def __init__(self, cluster: "ServiceFabricCluster",
                 rng: np.random.Generator,
                 use_annealing: bool = True,
                 anneal_iterations: int = 80,
                 cpu_weight: float = 1.0,
                 disk_weight: float = 0.05,
                 downtime_rng: np.random.Generator = None) -> None:
        super().__init__(cluster, rng, downtime_rng)
        self.use_annealing = use_annealing
        self.anneal_iterations = anneal_iterations
        #: Placement-energy weights. CPU (the reservation metric) is
        #: the primary balancing objective, as in Service Fabric's
        #: default metric weighting; disk is governed *reactively*
        #: through capacity violations, so it gets a low proactive
        #: weight. (Weighting disk highly would mask the density
        #: effect the paper measures: placement would pre-balance away
        #: the very imbalance that causes failovers.)
        self.cpu_weight = cpu_weight
        self.disk_weight = disk_weight
        self.stats = PlbStats()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def find_placement(self, service_id: str, replica_count: int,
                       loads: Dict[str, float]) -> List[int]:
        """Choose ``replica_count`` distinct nodes for a new service.

        ``loads`` are the per-replica loads the placement must fit
        (CPU reservation plus initial disk/memory). Returns node ids;
        raises :class:`PlacementError` when no feasible assignment
        exists — the control plane turns that into a creation redirect.
        """
        feasible = self._feasible_nodes(service_id, loads)
        if feasible.size < replica_count:
            self.stats.placement_failures += 1
            raise PlacementError(
                f"service {service_id} needs {replica_count} nodes, "
                f"only {feasible.size} feasible")

        # Greedy seed: spread onto the nodes with the most free CPU.
        candidate_ids = self._most_free_first(feasible, CPU_COLUMN).tolist()
        initial = tuple(candidate_ids[:replica_count])
        if not self.use_annealing or len(candidate_ids) == replica_count:
            self.stats.placements += 1
            return list(initial)

        energy = self._placement_energy(loads)

        def neighbour(selection: Tuple[int, ...],
                      rng: np.random.Generator) -> Tuple[int, ...]:
            chosen = list(selection)
            outside = [nid for nid in candidate_ids if nid not in selection]
            if not outside:
                return selection
            swap_at = int(rng.integers(len(chosen)))
            chosen[swap_at] = outside[int(rng.integers(len(outside)))]
            return tuple(chosen)

        result = anneal(initial, energy, neighbour, self._rng,
                        iterations=self.anneal_iterations)
        self.stats.anneal_iterations += result.iterations
        self.stats.placements += 1
        selection = list(result.state)  # type: ignore[arg-type]
        assert len(set(selection)) == len(selection)
        assert set(selection) <= set(candidate_ids)
        return selection

    def make_room(self, now: int, service_id: str, replica_count: int,
                  loads: Dict[str, float]) -> List[FailoverRecord]:
        """Relocate replicas so a blocked placement becomes feasible.

        Service Fabric's PLB does not give up when no node currently
        has headroom for a new replica: it balances existing replicas
        away first. This is what lets a higher-density cluster admit a
        large database that a lower-density cluster must redirect
        (the paper's §5.3.1 crossover). Returns the balancing moves
        performed (possibly none); the caller re-checks feasibility.
        """
        records: List[FailoverRecord] = []
        for _ in range(MAX_MAKE_ROOM_MOVES):
            feasible = self._feasible_nodes(service_id, loads)
            if feasible.size >= replica_count:
                break
            move = self._one_make_room_move(now, service_id, loads)
            if move is None:
                break
            records.append(move)
        return records

    def _movable_replicas(self, node: Node,
                          shortfall: float) -> List[Replica]:
        """Shed candidates on ``node``, best single move first."""
        return sorted(
            (r for r in node.replicas if r.cpu_cores > 0),
            key=lambda r: (r.cpu_cores < shortfall,  # prefer one-shot
                           r.is_primary,             # secondaries first
                           r.load(DISK_GB), r.replica_id))

    def _one_make_room_move(self, now: int, service_id: str,
                            loads: Dict[str, float]
                            ) -> Optional[FailoverRecord]:
        """Shed one replica from the node closest to hosting the new one."""
        needed_cpu = loads.get(CPU_CORES, 0.0)
        for node_id in self._make_room_candidates(service_id, loads):
            node = self._nodes[node_id]
            shortfall = needed_cpu - node.free(CPU_CORES)
            movable = self._movable_replicas(node, shortfall)
            for replica in movable:
                target = self._choose_target(replica, node)
                if target is None:
                    continue
                record = self._move(now, replica, node, target, CPU_CORES,
                                    reason=REASON_MAKE_ROOM)
                self.stats.make_room_moves += 1
                return record
        return None

    def _placement_energy(self, loads: Dict[str, float]
                          ) -> Callable[[Tuple[int, ...]], float]:
        """The annealing energy of one placement: cluster imbalance
        after hypothetically placing ``loads`` on a selection of nodes.

        Sum of squared per-node utilizations over CPU and disk; squaring
        penalizes hot nodes, which is what drives load-spreading. Each
        node's two terms are computed once; a selection recomputes only
        its own nodes' terms, and the 2N terms are folded in node order
        (:func:`fold_sum`), the order a loop over the nodes adds them.
        The terms stay Python float arithmetic: ``x ** 2`` calls libm's
        ``pow``, which numpy's ``x * x`` does not match bit for bit.
        """
        nodes = self._nodes
        needed_cpu = loads.get(CPU_CORES, 0.0)
        needed_disk = loads.get(DISK_GB, 0.0)
        unplaced = np.array([term for node in nodes
                             for term in self._energy_terms(
                                 node, node.load(CPU_CORES),
                                 node.load(DISK_GB))])

        def energy(selection: Tuple[int, ...]) -> float:
            terms = unplaced.copy()
            for node_id in selection:
                node = nodes[node_id]
                terms[2 * node_id], terms[2 * node_id + 1] = \
                    self._energy_terms(node, node.load(CPU_CORES) + needed_cpu,
                                       node.load(DISK_GB) + needed_disk)
            return fold_sum(terms)

        return energy

    def _energy_terms(self, node: Node, cpu: float,
                      disk: float) -> Tuple[float, float]:
        """One node's (CPU, disk) imbalance terms at the given loads."""
        return (self.cpu_weight * (cpu / node.capacities.cpu_cores) ** 2,
                self.disk_weight * (disk / node.capacities.disk_gb) ** 2)

    # ------------------------------------------------------------------
    # Capacity violations / failovers
    # ------------------------------------------------------------------

    def fix_violations(self, now: int,
                       metric: str = DISK_GB) -> List[FailoverRecord]:
        """Move replicas off nodes whose ``metric`` load exceeds capacity.

        Mirrors §3.1: one replica at a time is selected on the heavily
        loaded node and moved to another node; repeats until the node is
        back under its logical capacity or no move is possible.
        """
        records: List[FailoverRecord] = []
        moves_left = MAX_MOVES_PER_SWEEP
        for node in self._nodes:
            if not node.available:
                continue
            while node.violates(metric) and moves_left > 0:
                record = self._relieve_node(now, node, metric)
                if record is None:
                    self.stats.stuck_violations += 1
                    break
                records.append(record)
                moves_left -= 1
        return records

    def _relieve_node(self, now: int, node: Node,
                      metric: str) -> Optional[FailoverRecord]:
        """Move one replica off ``node`` to relieve a ``metric`` violation."""
        excess = node.load(metric) - node.capacities.of(metric)
        movable = [replica for replica in node.replicas
                   if replica.load(metric) > 0.0]
        if not movable:
            return None
        # Prefer the smallest replica that clears the violation in one
        # move (minimizes customer capacity moved); fall back through
        # progressively smaller replicas when the preferred one has no
        # feasible target — on a nearly full cluster, shedding load in
        # smaller pieces is how the violation still gets fixed (at the
        # cost of many more failovers, which is exactly the high-density
        # pain the paper quantifies).
        covering = sorted((r for r in movable if r.load(metric) >= excess),
                          key=lambda r: (r.load(metric), r.replica_id))
        non_covering = sorted((r for r in movable if r.load(metric) < excess),
                              key=lambda r: (-r.load(metric), r.replica_id))
        for replica in covering + non_covering:
            target = self._choose_target(replica, node)
            if target is not None:
                return self._move(now, replica, node, target, metric)
        return None

    def choose_target(self, replica: Replica,
                      source: Node) -> Optional[Node]:
        """Target selection for externally driven moves (node failures)."""
        return self._choose_target(replica, source)

    def _choose_target(self, replica: Replica,
                       source: Node) -> Optional[Node]:
        """Best node to receive ``replica`` (least disk-utilized fit)."""
        candidates = self._target_candidates(replica, source)
        if candidates.size == 0:
            return None
        matrix = self._matrix
        projected = ((matrix.loads[candidates, DISK_COLUMN]
                      + replica.load(DISK_GB))
                     / matrix.capacity[candidates, DISK_COLUMN])
        if self.use_annealing and candidates.size > 1:
            # Annealing over a single choice degenerates to a softmax-ish
            # randomized pick among the best few targets — keep the top
            # three by projected disk utilization and pick randomly.
            top = candidates[np.lexsort((candidates, projected))][:3]
            return self._nodes[int(top[int(self._rng.integers(len(top)))])]
        return self._nodes[int(candidates[np.argmin(projected)])]
