"""Cluster nodes with incremental load aggregation.

Paper §3.1: "Every replica of the application reports their load
metrics to the PLB where it aggregates a centralized view of the load
on each node." Aggregates here are maintained incrementally so a
report costs O(metrics), not O(replicas).

That centralized view is one cluster-wide :class:`LoadMatrix` (node ×
:data:`ALL_METRICS`), the only store of every node's loads and
availability, so a placement filter or a target pick is one vectorized
pass over the cluster instead of a Python loop over its nodes. Each
:class:`Node` reads and writes its own row and availability cell; no
other module knows how node state is stored.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import FabricError
from repro.fabric.metrics import ALL_METRICS, CPU_CORES, DISK_GB, NodeCapacities
from repro.fabric.replica import Replica

#: Column of each metric in :attr:`LoadMatrix.loads` and
#: :attr:`LoadMatrix.capacity` (the order of :data:`ALL_METRICS`).
METRIC_COLUMN: Dict[str, int] = {metric: column
                                 for column, metric in enumerate(ALL_METRICS)}
CPU_COLUMN = METRIC_COLUMN[CPU_CORES]
DISK_COLUMN = METRIC_COLUMN[DISK_GB]


class LoadMatrix:
    """Every node's loads and capacities as node × metric float64 arrays.

    Row ``i`` belongs to node id ``i``. ``loads`` holds each node's
    aggregates, written only by its :class:`Node`; ``capacity`` is
    constant; ``available`` is each node's up/down flag, written only
    by the cluster's ``fail_node``/``restore_node``. Backends only read.
    """

    __slots__ = ("loads", "capacity", "available")

    def __init__(self, capacities: Sequence[NodeCapacities]) -> None:
        self.capacity = np.array([[caps.of(metric) for metric in ALL_METRICS]
                                  for caps in capacities], dtype=np.float64)
        self.loads = np.zeros_like(self.capacity)
        self.available = np.ones(len(capacities), dtype=bool)

    def free(self) -> np.ndarray:
        """``capacity - loads`` per cell: the subtraction ``Node.free`` does."""
        return self.capacity - self.loads


def fold_sum(values: Sequence[float]) -> float:
    """Left-to-right float sum from ``0.0``, as CPython 3.10/3.11's ``sum()``.

    ``np.sum`` adds pairwise and Python 3.12's ``sum()`` compensates,
    so neither reproduces these bits; ``np.add.accumulate`` is a strict
    left fold. The final ``0.0 +`` turns an all ``-0.0`` fold into the
    ``0.0`` that ``sum()``'s start value gives.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return 0.0
    return 0.0 + float(np.add.accumulate(array)[-1])


class Node:
    """One data-plane node: capacities plus hosted replicas.

    ``row`` is the node's row of the cluster's :class:`LoadMatrix`
    ``loads`` and ``available`` its one-cell slice of the matrix's
    ``available`` mask (both views); a node built on its own gets
    private ones.
    """

    def __init__(self, node_id: int, capacities: NodeCapacities,
                 row: Optional[np.ndarray] = None,
                 available: Optional[np.ndarray] = None) -> None:
        self.node_id = node_id
        self.capacities = capacities
        #: Both views are read and written through memoryviews of their
        #: buffers: on the report path an item access costs about half
        #: of numpy's, and it yields a Python float or bool.
        self._row = memoryview(row if row is not None
                               else np.zeros(len(ALL_METRICS)))
        self._available = memoryview(available if available is not None
                                     else np.ones(1, dtype=bool))
        self._replicas: Dict[int, Replica] = {}
        #: Service ids hosted here. Anti-affinity caps it at one
        #: replica per service, so a set gives O(1) ``hosts_service``
        #: — the inner loop of every placement scan at fleet scale.
        self._service_ids: Set[str] = set()
        #: True while the node undergoes a (simulated) maintenance
        #: upgrade; collectors may flag its readings as outliers.
        self.in_maintenance = False

    @property
    def available(self) -> bool:
        """False while the node is down (failure injection); the PLB
        never places onto or moves replicas to an unavailable node."""
        return self._available[0]

    # -- topology -----------------------------------------------------

    @property
    def replicas(self) -> List[Replica]:
        """Replicas currently hosted on this node."""
        return list(self._replicas.values())

    @property
    def replica_count(self) -> int:
        return len(self._replicas)

    def hosts_service(self, service_id: str) -> bool:
        """True if any replica of ``service_id`` lives here (anti-affinity)."""
        return service_id in self._service_ids

    def attach(self, replica: Replica) -> None:
        """Host ``replica`` and add its reported loads to the aggregates."""
        if replica.replica_id in self._replicas:
            raise FabricError(
                f"replica {replica.replica_id} already on node {self.node_id}")
        if self.hosts_service(replica.service_id):
            raise FabricError(
                f"node {self.node_id} already hosts a replica of "
                f"service {replica.service_id}")
        self._replicas[replica.replica_id] = replica
        self._service_ids.add(replica.service_id)
        replica.node_id = self.node_id
        row = self._row
        for metric, value in replica.reported.items():
            column = METRIC_COLUMN[metric]
            row[column] = row[column] + value

    def detach(self, replica: Replica) -> None:
        """Remove ``replica`` and subtract its loads from the aggregates."""
        if replica.replica_id not in self._replicas:
            raise FabricError(
                f"replica {replica.replica_id} not on node {self.node_id}")
        del self._replicas[replica.replica_id]
        self._service_ids.discard(replica.service_id)
        replica.node_id = None
        row = self._row
        for metric, value in replica.reported.items():
            column = METRIC_COLUMN[metric]
            row[column] = row[column] - value

    # -- load accounting ----------------------------------------------

    def apply_report(self, replica: Replica, loads: Dict[str, float]) -> None:
        """Update a hosted replica's reported loads and the aggregates."""
        if replica.replica_id not in self._replicas:
            raise FabricError(
                f"replica {replica.replica_id} not on node {self.node_id}")
        reported = replica.reported
        row = self._row
        for metric, new_value in loads.items():
            old_value = reported.get(metric, 0.0)
            reported[metric] = new_value
            column = METRIC_COLUMN[metric]
            row[column] = row[column] + new_value - old_value

    def load(self, metric: str) -> float:
        """Aggregate load of ``metric`` on this node."""
        return self._row[METRIC_COLUMN[metric]]

    def free(self, metric: str) -> float:
        """Remaining logical capacity for ``metric``."""
        return self.capacities.of(metric) - self.load(metric)

    def utilization(self, metric: str) -> float:
        """Load as a fraction of the logical capacity."""
        return self.load(metric) / self.capacities.of(metric)

    def violates(self, metric: str, tolerance: float = 1e-9) -> bool:
        """True when the aggregate load exceeds the logical capacity."""
        return self.load(metric) > self.capacities.of(metric) + tolerance

    def recompute_loads(self) -> None:
        """Rebuild aggregates from scratch (consistency check / repair)."""
        row = self._row
        for column in METRIC_COLUMN.values():
            row[column] = 0.0
        for replica in self._replicas.values():
            for metric, value in replica.reported.items():
                row[METRIC_COLUMN[metric]] += value

    def __repr__(self) -> str:
        return (f"Node({self.node_id}, replicas={self.replica_count}, "
                f"cpu={self.load('cpu-cores'):.0f}/"
                f"{self.capacities.cpu_cores:.0f}, "
                f"disk={self.load('disk-gb'):.0f}/"
                f"{self.capacities.disk_gb:.0f})")
