#!/usr/bin/env python3
"""Toto on a non-database orchestrated service.

The paper's closing claim: "Toto is not limited in its relevance to a
cloud database service, but applies to any cloud service that
leverages cluster orchestration using a system like Kubernetes or SF."

This example benchmarks a fictional *cache service*: stateless cache
pods whose governed resource is DRAM, placed by the same PLB and
subject to the same capacity-violation failovers — no SQL DB substrate
involved. A custom working-set model (a plain ResourceModel subclass)
drives the memory metric; the PLB sweep governs ``memory-gb`` instead
of disk.

Run with::

    python examples/generic_service.py
"""

import math

import numpy as np

from repro.core.model_base import ModelContext, ResourceModel, TotoModelSet
from repro.core.selectors import ALL_DATABASES
from repro.fabric.cluster import ServiceFabricCluster
from repro.fabric.metrics import MEMORY_GB, NodeCapacities
from repro.rng import RngRegistry
from repro.units import HOUR


class WorkingSetModel(ResourceModel):
    """Cache working set: fills toward a hot-hours target, decays off-peak.

    Stateless per §3.3.1 — the previous value arrives via the context —
    and non-persisted: a cache restarted elsewhere starts cold.
    """

    metric = MEMORY_GB
    persisted = False
    selector = ALL_DATABASES  # every pod of the service

    def __init__(self, peak_gb: float, trough_gb: float,
                 tau_hours: float = 1.5) -> None:
        self.peak_gb = peak_gb
        self.trough_gb = trough_gb
        self.tau_hours = tau_hours

    def kind(self) -> str:
        return "WorkingSetModel"

    def _target(self, now: int) -> float:
        hour = (now // HOUR) % 24
        hot = 9 <= hour <= 20
        return self.peak_gb if hot else self.trough_gb

    def initial_value(self, context: ModelContext) -> float:
        return 0.5  # cold cache

    def next_value(self, context: ModelContext) -> float:
        if context.previous_value is None:
            return self.initial_value(context)
        target = self._target(context.now)
        decay = math.exp(-context.interval_seconds
                         / (self.tau_hours * HOUR))
        value = target + (context.previous_value - target) * decay
        return max(value * (1.0 + float(context.rng.normal(0, 0.03))),
                   0.1)


class CachePod:
    """Minimal stand-in for the database object models select on."""

    def __init__(self, pod_id: str) -> None:
        self.db_id = pod_id


def main() -> None:
    registry = RngRegistry(99)
    cluster = ServiceFabricCluster(
        node_count=5,
        capacities=NodeCapacities(cpu_cores=16, disk_gb=512,
                                  memory_gb=64.0),
        plb_rng=registry.stream("plb"))
    model_set = TotoModelSet([WorkingSetModel(peak_gb=22.0,
                                              trough_gb=6.0)])

    pods = {}
    for index in range(12):
        record = cluster.create_service(f"cache-{index:02d}", 1, 2.0,
                                        {MEMORY_GB: 0.5}, now=0)
        pods[f"cache-{index:02d}"] = (record.replicas[0],
                                      CachePod(f"cache-{index:02d}"))

    rng = registry.stream("model")
    print("hour  mem/node (GB)                     failovers")
    failovers = 0
    for step in range(24 * 12):  # 24h at 5-minute reports
        now = step * 300
        for replica, pod in pods.values():
            model = model_set.find(MEMORY_GB, pod)
            previous = replica.load(MEMORY_GB) if step else None
            value = model.next_value(ModelContext(
                now=now, interval_seconds=300, database=pod,
                is_primary=True, previous_value=previous, rng=rng))
            cluster.report_load(replica, {MEMORY_GB: value})
        # Govern MEMORY instead of disk: same PLB machinery.
        records = cluster.plb.fix_violations(now, metric=MEMORY_GB)
        failovers += len(records)
        if step % 36 == 0:
            loads = " ".join(f"{node.load(MEMORY_GB):5.1f}"
                             for node in cluster.nodes)
            print(f"h{now // HOUR:<4d} {loads}   {failovers}")

    print(f"\n24h of cache-service benchmarking: {failovers} "
          "memory-capacity failovers, zero SQL anywhere.")
    cluster.validate_invariants()


if __name__ == "__main__":
    main()
