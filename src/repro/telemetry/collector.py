"""Hourly KPI collection from the simulated cluster.

"Each experiment was executed in real time and observed by collecting
telemetry from the cluster" (§5.2). The collector snapshots the
cluster every hour (each Figure 11 point "representing an hour") and
keeps cumulative counters for redirects and failed-over cores so the
experiment drivers can emit the paper's series directly.

Nodes undergoing a maintenance upgrade are excluded from a snapshot,
reproducing the telemetry outliers the paper calls out in Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import UnknownDatabaseError
from repro.fabric.metrics import CPU_CORES, DISK_GB
from repro.fabric.node import CPU_COLUMN, DISK_COLUMN, fold_sum
from repro.simkernel import PeriodicProcess, SimulationKernel
from repro.sqldb.editions import Edition
from repro.sqldb.tenant_ring import TenantRing
from repro.units import HOUR


@dataclass(frozen=True)
class TelemetryFrame:
    """One hourly snapshot of the ring."""

    time: int
    hour_index: int
    reserved_cores: float
    disk_gb: float
    core_utilization: float
    disk_utilization: float
    active_gp: int
    active_bc: int
    redirects_cumulative: int
    failover_count_cumulative: int
    failover_cores_cumulative: float
    failover_bc_cores_cumulative: float
    nodes_in_maintenance: int
    node_cores: Tuple[float, ...]
    node_disk_gb: Tuple[float, ...]
    #: Fault-injection counters (cumulative; 0 for chaos-free runs).
    faults_injected_cumulative: int = 0
    chaos_retries_cumulative: int = 0
    degraded_intervals_cumulative: int = 0

    @property
    def active_total(self) -> int:
        return self.active_gp + self.active_bc


class TelemetryCollector:
    """Collects one :class:`TelemetryFrame` per hour once started."""

    def __init__(self, kernel: SimulationKernel, ring: TenantRing,
                 interval: int = HOUR) -> None:
        self._kernel = kernel
        self._ring = ring
        self.frames: List[TelemetryFrame] = []  # totolint: fleet-scale
        self._start_time: Optional[int] = None
        self._process = PeriodicProcess(kernel, interval, self._snapshot,
                                        label="telemetry-collector")
        # Incremental failover rollup: ``cluster.failovers`` only ever
        # grows, so each snapshot folds the records appended since the
        # previous one into running totals instead of rescanning the
        # whole (multi-thousand-record, multi-day) list every hour.
        self._failover_cursor = 0
        self._failover_count = 0
        self._failover_cores = 0.0
        self._failover_bc_cores = 0.0
        self._frame_listeners: List[Callable[[TelemetryFrame], None]] = []

    def start(self) -> None:
        """Begin hourly snapshots; hour 0 is captured immediately.

        Idempotent: calling ``start()`` while already collecting is a
        no-op (no duplicate hour-0 frame, no second periodic process).
        After a ``stop()``, ``start()`` resumes collection but keeps
        the original start time, so ``hour_index`` stays anchored to
        the experiment's official start.
        """
        if self._process.running:
            return
        if self._start_time is None:
            self._start_time = self._kernel.now
        if not self.frames or self.frames[-1].time != self._kernel.now:
            self._snapshot(self._kernel.now)
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    def add_frame_listener(
            self, listener: Callable[[TelemetryFrame], None]) -> None:
        """Call ``listener`` with every frame as it is captured.

        Listeners ride the existing snapshot events — registering one
        schedules nothing and must not mutate simulation state (the
        observability layer uses this to sample metrics per hour).
        """
        self._frame_listeners.append(listener)

    def capture_final(self) -> None:
        """Take a closing snapshot (events exactly at the run's end
        time are not executed by the kernel, so the final hour would
        otherwise be missing from the series)."""
        now = self._kernel.now
        if not self.frames or self.frames[-1].time != now:
            self._snapshot(now)

    # ------------------------------------------------------------------

    def _snapshot(self, now: int) -> None:
        cluster = self._ring.cluster
        control_plane = self._ring.control_plane
        live = [n.node_id for n in cluster.nodes if not n.in_maintenance]
        maintenance_count = cluster.node_count - len(live)

        # Folded in node order, so the totals carry the same bits on
        # every Python version (3.12's ``sum()`` compensates).
        live_loads = cluster.matrix.loads[live]
        reserved = fold_sum(live_loads[:, CPU_COLUMN])
        disk = fold_sum(live_loads[:, DISK_COLUMN])
        # Capacities are static after construction; the cluster memoizes
        # these totals, so the per-frame cost is a dict lookup.
        core_capacity = cluster.total_capacity(CPU_CORES)
        disk_capacity = cluster.total_capacity(DISK_GB)

        failovers = cluster.failovers
        for record in failovers[self._failover_cursor:]:
            if not record.is_capacity_failover:
                continue
            self._failover_count += 1
            self._failover_cores += record.cores_moved
            try:
                edition = control_plane.database(record.service_id).edition
            except UnknownDatabaseError:
                # Mirror FailoverKpis.from_records: records for databases
                # the control plane never registered (bootstrap
                # artifacts) default to the majority edition instead of
                # aborting the hourly snapshot.
                edition = Edition.STANDARD_GP
            if edition is Edition.PREMIUM_BC:
                self._failover_bc_cores += record.cores_moved
        self._failover_cursor = len(failovers)

        chaos = self._ring.chaos
        start = self._start_time if self._start_time is not None else now
        frame = TelemetryFrame(
            time=now,
            hour_index=(now - start) // HOUR,
            reserved_cores=reserved,
            disk_gb=disk,
            core_utilization=reserved / core_capacity,
            disk_utilization=disk / disk_capacity,
            active_gp=control_plane.active_count(Edition.STANDARD_GP),
            active_bc=control_plane.active_count(Edition.PREMIUM_BC),
            redirects_cumulative=control_plane.redirect_count(),
            failover_count_cumulative=self._failover_count,
            failover_cores_cumulative=self._failover_cores,
            failover_bc_cores_cumulative=self._failover_bc_cores,
            nodes_in_maintenance=maintenance_count,
            node_cores=tuple(n.load(CPU_CORES) for n in cluster.nodes),
            node_disk_gb=tuple(n.load(DISK_GB) for n in cluster.nodes),
            faults_injected_cumulative=(
                0 if chaos is None else chaos.telemetry.faults_injected),
            chaos_retries_cumulative=(
                0 if chaos is None else chaos.telemetry.retries),
            degraded_intervals_cumulative=(
                0 if chaos is None else chaos.telemetry.degraded_intervals),
        )
        self.frames.append(frame)
        for listener in self._frame_listeners:
            listener(frame)

    # ------------------------------------------------------------------

    @property
    def last(self) -> TelemetryFrame:
        if not self.frames:
            raise IndexError("no telemetry collected yet")
        return self.frames[-1]

    def series(self, attribute: str) -> List[float]:
        """Extract one attribute as a list across frames."""
        return [getattr(frame, attribute) for frame in self.frames]

    def first_hour_with_redirect(self) -> Optional[int]:
        """Hour index of the first creation redirect (Figure 10)."""
        for frame in self.frames:
            if frame.redirects_cumulative > 0:
                return frame.hour_index
        return None
