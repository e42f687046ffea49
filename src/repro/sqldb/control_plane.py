"""The control plane: CRUD APIs, admission control, creation redirects.

Paper §5.3.1: "A creation redirect will occur when the cluster does
not have enough cores to satisfy the creation request. Instead of
being placed in this tenant ring, the database will be redirected to
another tenant ring that has enough capacity."

Admission therefore checks the cluster-wide reserved-core budget *and*
actual placement feasibility (a 4-replica BC needs four distinct nodes
with room); either failing produces a redirect, which Figure 10 plots
cumulatively per density level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import (
    AdmissionRejected,
    PlacementError,
    RetryBudgetExceeded,
    UnknownDatabaseError,
)
from repro.fabric.cluster import ServiceFabricCluster
from repro.fabric.failover import FailoverRecord
from repro.fabric.metrics import CPU_CORES, DISK_GB, MEMORY_GB
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.editions import COLD_BUFFER_POOL_GB, Edition
from repro.sqldb.rgmanager import clear_persisted_loads
from repro.sqldb.slo import ServiceLevelObjective, get_slo


@dataclass(frozen=True)
class CreationRedirect:
    """A create request this ring could not admit (paper Figure 10)."""

    time: int
    slo_name: str
    edition: Edition
    requested_cores: int
    free_cores: float
    reason: str


class ControlPlane:
    """CRUD front door of one tenant ring."""

    def __init__(self, cluster: ServiceFabricCluster) -> None:
        self._cluster = cluster
        self._databases: Dict[str, DatabaseInstance] = {}  # totolint: fleet-scale
        # Active subset, maintained on create/drop. ``_databases`` keeps
        # every database ever created and grows without bound over a
        # multi-day run, while the active set is bounded by cluster
        # capacity — per-event queries must scan this one (TL022).
        self._active: Dict[str, DatabaseInstance] = {}
        self._db_ids = itertools.count(1)
        self.redirects: List[CreationRedirect] = []
        self.creates_succeeded = 0
        self.drops_executed = 0
        self._creation_listeners: List[Callable[[DatabaseInstance], None]] = []
        self._drop_listeners: List[Callable[[DatabaseInstance], None]] = []
        #: Optional fault injector gating create/drop calls.
        self.chaos = None
        cluster.add_failover_listener(self._on_failover)

    def attach_chaos(self, chaos) -> None:
        """Install a fault injector on the create/drop paths."""
        self.chaos = chaos

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def cluster(self) -> ServiceFabricCluster:
        return self._cluster

    def database(self, db_id: str) -> DatabaseInstance:
        database = self._databases.get(db_id)
        if database is None:
            raise UnknownDatabaseError(f"unknown database '{db_id}'")
        return database

    def all_databases(self) -> List[DatabaseInstance]:
        """Every database ever created (including dropped ones)."""
        return list(self._databases.values())

    def active_databases(self,
                         edition: Optional[Edition] = None
                         ) -> List[DatabaseInstance]:
        """Currently hosted databases, optionally filtered by edition."""
        if edition is None:
            return list(self._active.values())
        return [db for db in self._active.values()
                if db.edition is edition]

    def active_count(self, edition: Optional[Edition] = None) -> int:
        if edition is None:
            return len(self._active)
        return len(self.active_databases(edition))

    def redirect_count(self) -> int:
        return len(self.redirects)

    # ------------------------------------------------------------------
    # Create / Drop
    # ------------------------------------------------------------------

    def create_database(self, slo_name: str, now: int,
                        initial_data_gb: float,
                        high_initial_growth: bool = False,
                        initial_growth_total_gb: float = 0.0,
                        rapid_growth: bool = False,
                        from_bootstrap: bool = False) -> DatabaseInstance:
        """Admit and place a new database.

        Raises :class:`AdmissionRejected` (recording a creation
        redirect) when the ring lacks capacity; the caller — normally
        the Population Manager — treats that as "sent to another ring".
        """
        slo = get_slo(slo_name)
        required_cores = slo.total_reserved_cores
        free_cores = self._cluster.free_capacity(CPU_CORES)
        if self.chaos is not None:
            try:
                self.chaos.control_plane_gate("create", now)
            except RetryBudgetExceeded as exc:
                # The create API stayed unreachable past the retry
                # budget; the request is redirected to another ring
                # exactly like a capacity rejection (§5.3.1 semantics).
                self._record_redirect(now, slo, free_cores,
                                      reason="chaos-create-timeout")
                raise AdmissionRejected(
                    f"create of {slo_name} timed out against the "
                    "control plane",
                    required_cores=required_cores,
                    free_cores=int(free_cores)) from exc
        if free_cores < required_cores:
            self._record_redirect(now, slo, free_cores,
                                  reason="insufficient-cluster-cores")
            raise AdmissionRejected(
                f"ring has {free_cores:.0f} free cores, "
                f"{slo_name} needs {required_cores}",
                required_cores=required_cores, free_cores=int(free_cores))

        db_id = f"db-{next(self._db_ids):05d}"
        database = DatabaseInstance(
            db_id=db_id, slo=slo, created_at=now,
            initial_data_gb=initial_data_gb,
            high_initial_growth=high_initial_growth,
            initial_growth_total_gb=initial_growth_total_gb,
            rapid_growth=rapid_growth,
            from_bootstrap=from_bootstrap,
        )
        initial_loads = {
            DISK_GB: database.initial_local_disk_gb(),
            MEMORY_GB: min(COLD_BUFFER_POOL_GB, slo.memory_gb),
        }
        try:
            self._cluster.create_service(
                service_id=db_id, replica_count=slo.replica_count,
                cpu_cores=float(slo.cores), initial_loads=initial_loads,
                now=now)
        except PlacementError as exc:
            # During bootstrap the population *must* land — a redirect
            # here would silently shrink the Table 2 population the
            # whole run is parameterized on. Big-first packing can
            # wedge a wide ring (free cores and free disk end up on
            # disjoint nodes), so ask the backend for a spill: swap
            # replicas between nodes until the placement fits, then
            # retry once. Steady-state creates keep redirecting — that
            # is the §5.3.1 KPI.
            placed = False
            if from_bootstrap:
                swaps = self._cluster.bootstrap_spill(
                    service_id=db_id, replica_count=slo.replica_count,
                    cpu_cores=float(slo.cores),
                    initial_loads=initial_loads, now=now)
                if swaps:
                    try:
                        self._cluster.create_service(
                            service_id=db_id,
                            replica_count=slo.replica_count,
                            cpu_cores=float(slo.cores),
                            initial_loads=initial_loads, now=now)
                        placed = True
                    except PlacementError:
                        placed = False
            if not placed:
                self._record_redirect(now, slo, free_cores,
                                      reason="placement-infeasible")
                raise AdmissionRejected(
                    f"no feasible placement for {slo_name}: {exc}",
                    required_cores=required_cores,
                    free_cores=int(free_cores)) from exc

        self._databases[db_id] = database
        self._active[db_id] = database
        self.creates_succeeded += 1
        for listener in self._creation_listeners:
            listener(database)
        return database

    def drop_database(self, db_id: str, now: int) -> DatabaseInstance:
        """Drop an active database and release its capacity.

        Raises :class:`repro.errors.RetryBudgetExceeded` when an
        injected control-plane outage outlasts the retry budget; the
        database stays active and the caller retries the drop later.
        """
        database = self.database(db_id)
        if self.chaos is not None:
            self.chaos.control_plane_gate("drop", now)
        record = self._cluster.service(db_id)
        dropped_replica_ids = [r.replica_id for r in record.replicas]
        database.mark_dropped(now)
        del self._active[db_id]
        self._cluster.drop_service(db_id)
        clear_persisted_loads(self._cluster.naming, db_id)
        self.drops_executed += 1
        database.dropped_replica_ids = dropped_replica_ids
        for listener in self._drop_listeners:
            listener(database)
        return database

    def add_creation_listener(
            self, listener: Callable[[DatabaseInstance], None]) -> None:
        """Register a callback invoked after every successful create."""
        self._creation_listeners.append(listener)

    def add_drop_listener(
            self, listener: Callable[[DatabaseInstance], None]) -> None:
        """Register a callback invoked after every drop."""
        self._drop_listeners.append(listener)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _record_redirect(self, now: int, slo: ServiceLevelObjective,
                         free_cores: float, reason: str) -> None:
        self.redirects.append(CreationRedirect(
            time=now, slo_name=slo.name, edition=slo.edition,
            requested_cores=slo.total_reserved_cores,
            free_cores=free_cores, reason=reason))

    def _on_failover(self, record: FailoverRecord) -> None:
        """Attribute a failover's downtime to the affected database.

        SLA accounting is minute-granular (as in the public Azure SLA:
        "total accumulated minutes ... the database was unavailable"),
        so any customer-visible *unplanned* interruption books at least
        one full minute. Planned make-room moves drain gracefully and
        book only their actual seconds.
        """
        database = self._databases.get(record.service_id)
        if database is None or not database.is_active:
            return
        downtime = record.downtime_seconds
        if downtime <= 0:
            return
        if record.is_capacity_failover:
            downtime = 60.0 * math.ceil(downtime / 60.0)
        database.record_downtime(downtime)
