"""Service-Fabric-like cluster orchestrator substrate.

The paper's Toto implementation sits on Microsoft Service Fabric (SF):
nodes host service replicas, each replica reports *dynamic load
metrics* to the Placement and Load Balancer (PLB), every metric has a
node-level *logical capacity*, and when a node's aggregate load
exceeds that capacity the PLB fails a replica over to another node.
SF's PLB searches placements with simulated annealing, which is the
source of run-to-run non-determinism the paper quantifies in §5.3.4.

This package reproduces exactly those mechanics:

* :mod:`repro.fabric.metrics` — metric names and node capacities;
* :mod:`repro.fabric.node` / :mod:`repro.fabric.replica` — the hosted
  topology with incremental load aggregation into the cluster's load
  matrix, the one store of every node's loads and availability;
* :mod:`repro.fabric.naming` — the Naming Service metastore that Toto
  uses both for model XML distribution and persisted disk loads;
* :mod:`repro.fabric.annealing` — a small simulated-annealing search;
* :mod:`repro.fabric.backend` — the orchestrator-backend contract and
  the mechanics every backend shares (docs/ORCHESTRATORS.md);
* :mod:`repro.fabric.plb` — the ``"annealing"`` backend: placement,
  balancing and capacity-violation fixes (failovers);
* :mod:`repro.fabric.k8s` — the ``"k8s"`` backend: a Kubernetes-style
  requests scheduler with priority preemption;
* :mod:`repro.fabric.cluster` — the cluster facade tying it together,
  and ``BACKENDS``, the backends by name.
"""

from repro.fabric.backend import OrchestratorBackend
from repro.fabric.cluster import BACKENDS, ServiceFabricCluster
from repro.fabric.failover import FailoverRecord
from repro.fabric.k8s import KubernetesBackend
from repro.fabric.metrics import (
    CPU_CORES,
    DISK_GB,
    MEMORY_GB,
    NodeCapacities,
)
from repro.fabric.naming import NamingService
from repro.fabric.node import Node
from repro.fabric.plb import PlacementAndLoadBalancer
from repro.fabric.replica import Replica, ReplicaRole

__all__ = [
    "BACKENDS",
    "CPU_CORES",
    "DISK_GB",
    "MEMORY_GB",
    "FailoverRecord",
    "KubernetesBackend",
    "NamingService",
    "Node",
    "NodeCapacities",
    "OrchestratorBackend",
    "PlacementAndLoadBalancer",
    "Replica",
    "ReplicaRole",
    "ServiceFabricCluster",
]
