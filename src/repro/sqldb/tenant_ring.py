"""One tenant ring wired end to end.

A tenant ring (paper §2-3.1) is one Service Fabric cluster hosting
data-plane services. :class:`TenantRing` assembles the cluster, one
RgManager per node, the control plane, the periodic replica-report
sweep, and an optional maintenance-upgrade simulator (the source of
the telemetry outliers the paper notes in Figure 11).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ScenarioError
from repro.fabric.cluster import ServiceFabricCluster
from repro.fabric.failover import FailoverRecord
from repro.fabric.metrics import GEN5_NODE, NodeCapacities
from repro.fabric.replica import Replica
from repro.rng import RngRegistry
from repro.simkernel import PeriodicProcess, SimulationKernel
from repro.sqldb.control_plane import ControlPlane
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.rgmanager import RgManager
from repro.units import DEFAULT_REPORT_INTERVAL, HOUR


def _report_order(replica: Replica) -> Tuple[bool, int]:
    """Report-sweep sort key: primary first, then replica id (§3.3.2).

    Module-level so the per-service sort does not rebuild a closure on
    every sweep iteration.
    """
    return (not replica.is_primary, replica.replica_id)


@dataclass(frozen=True)
class TenantRingConfig:
    """Shape of the stage cluster under benchmark.

    Defaults reproduce the paper's setup: "a smaller 14 node, gen5,
    stage cluster" (§5.2) with the density knob at 100%.
    """

    node_count: int = 14
    base_capacities: NodeCapacities = GEN5_NODE
    density: float = 1.0
    report_interval: int = DEFAULT_REPORT_INTERVAL
    start_weekday: int = 0
    use_annealing: bool = True
    #: Orchestrator backend (:mod:`repro.fabric.backend`): the paper's
    #: ``"annealing"`` PLB or the ``"k8s"`` scheduler.
    backend: str = "annealing"
    #: Mean hours between simulated cluster maintenance upgrades;
    #: 0 disables them.
    maintenance_interval_hours: float = 0.0
    maintenance_duration_hours: float = 1.0
    #: Usable fraction of each node's physical cores for the
    #: noisy-neighbor CPU governor (§3.2); 0 disables governance.
    cpu_governance_limit: float = 0.0

    def __post_init__(self) -> None:
        if self.node_count <= 0:
            raise ScenarioError(f"node_count must be > 0, got {self.node_count}")
        if self.density <= 0:
            raise ScenarioError(f"density must be > 0, got {self.density}")
        if self.report_interval <= 0:
            raise ScenarioError("report_interval must be > 0")

    @property
    def node_capacities(self) -> NodeCapacities:
        """Per-node capacities with the density knob applied to CPU."""
        return self.base_capacities.scaled_cpu(self.density)


class TenantRing:
    """The assembled ring: cluster + RgManagers + control plane + sweeps."""

    def __init__(self, kernel: SimulationKernel, config: TenantRingConfig,
                 rng_registry: RngRegistry,
                 plb_rng_name: str = "plb") -> None:
        self.kernel = kernel
        self.config = config
        self.rng = rng_registry
        self.cluster = ServiceFabricCluster(
            node_count=config.node_count,
            capacities=config.node_capacities,
            plb_rng=rng_registry.stream(plb_rng_name),  # totolint: substream=plb-*
            use_annealing=config.use_annealing,
            downtime_rng=rng_registry.stream("failover", "downtime"),
            backend=config.backend,
        )
        self.control_plane = ControlPlane(self.cluster)
        self.rgmanagers: List[RgManager] = [
            RgManager(node_id=node.node_id, naming=self.cluster.naming,
                      rng_registry=rng_registry,
                      start_weekday=config.start_weekday)
            for node in self.cluster.nodes
        ]
        if config.cpu_governance_limit > 0:
            from repro.sqldb.governance import CpuGovernor
            for rgmanager in self.rgmanagers:
                rgmanager.governor = CpuGovernor(
                    cpu_capacity_cores=config.base_capacities.cpu_cores,
                    limit_fraction=config.cpu_governance_limit)
        self._reporter = PeriodicProcess(
            kernel, config.report_interval, self._report_sweep,
            label="replica-report-sweep")
        self._maintenance: Optional[PeriodicProcess] = None
        self.report_sweeps = 0
        #: Optional fault injector (set by its ``install()``); gates the
        #: metric-report RPCs and feeds the telemetry chaos counters.
        self.chaos = None

        self.cluster.add_failover_listener(self._on_failover)
        self.control_plane.add_drop_listener(self._on_drop)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic report sweep (and maintenance if enabled)."""
        self._reporter.start()
        if self.config.maintenance_interval_hours > 0:
            self._maintenance = PeriodicProcess(
                self.kernel, HOUR, self._maintenance_tick,
                label="maintenance-upgrades")
            self._maintenance.start()

    def stop(self) -> None:
        self._reporter.stop()
        if self._maintenance is not None:
            self._maintenance.stop()

    # ------------------------------------------------------------------
    # Periodic behaviour
    # ------------------------------------------------------------------

    def _report_sweep(self, now: int) -> None:
        """Every replica consults its RgManager and reports to the PLB.

        Mirrors Figure 5: SQL replica -> RgManager RPC -> (Toto models
        or actual) -> report to PLB. After all reports, the PLB fixes
        any disk-capacity violations (failovers).

        Under a CPU governor (``cpu_governance_limit > 0``) the sweep
        also queues each node's reporters in report order, so
        RgManager samples the governor's input with one vectorized draw
        per node; without one, no CPU usage is sampled at all.
        """
        interval = self.config.report_interval
        governed = self.config.cpu_governance_limit > 0
        cpu_reporters: Dict[int, List[Tuple[Replica, DatabaseInstance]]] = \
            defaultdict(list)
        for record in self.cluster.services():
            database = self.control_plane.database(record.service_id)
            # Primary reports first so persisted metrics are fresh when
            # the secondaries read them (§3.3.2).
            ordered = sorted(record.replicas, key=_report_order)
            for replica in ordered:
                node_id = replica.node_id
                if node_id is None:
                    continue
                node = self.cluster.node(node_id)
                if node.in_maintenance:
                    continue  # node is restarting; report skipped
                if self.chaos is not None and \
                        not self.chaos.rpc_gate(node_id, now):
                    continue  # metric-report RPC lost to injected fault
                rgmanager = self.rgmanagers[node_id]
                loads = rgmanager.get_metric_loads(
                    replica, database, now, interval)
                self.cluster.report_load(replica, loads)
                if governed:
                    cpu_reporters[node_id].append((replica, database))
        for node_id, reporters in cpu_reporters.items():
            self.rgmanagers[node_id].observe_cpu_usage_batch(reporters, now)
        self.cluster.sweep_violations(now)
        if governed:
            for rgmanager in self.rgmanagers:
                rgmanager.apply_cpu_governance(interval)
        self.report_sweeps += 1

    def _maintenance_tick(self, now: int) -> None:
        """Occasionally take one node through a maintenance upgrade."""
        rng = self.rng.stream("maintenance")
        probability = 1.0 / self.config.maintenance_interval_hours
        if rng.random() >= probability:
            return
        candidates = [n for n in self.cluster.nodes if not n.in_maintenance]
        if not candidates:
            return
        node = candidates[int(rng.integers(len(candidates)))]
        node.in_maintenance = True
        duration = int(self.config.maintenance_duration_hours * HOUR)
        self.kernel.schedule_oneshot_after(
            duration, lambda: setattr(node, "in_maintenance", False),
            label=f"maintenance-end-node-{node.node_id}")

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------

    def _on_failover(self, record: FailoverRecord) -> None:
        """Clear node-local RgManager memory for the moved replica.

        This is what makes non-persisted metrics reset after a
        failover: the source node forgets, and the destination node has
        never seen the replica.
        """
        self.rgmanagers[record.from_node].forget_replica(record.replica_id)

    def _on_drop(self, database: DatabaseInstance) -> None:
        for replica_id in database.dropped_replica_ids:
            for rgmanager in self.rgmanagers:
                rgmanager.forget_replica(replica_id)

    # ------------------------------------------------------------------
    # Convenience KPIs
    # ------------------------------------------------------------------

    def reserved_cores(self) -> float:
        return self.cluster.reserved_cores()

    def disk_usage_gb(self) -> float:
        return self.cluster.disk_usage_gb()

    def free_cores(self) -> float:
        from repro.fabric.metrics import CPU_CORES
        return self.cluster.free_capacity(CPU_CORES)
