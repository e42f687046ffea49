"""Database instances and their lifecycle state.

A :class:`DatabaseInstance` is the control-plane view of one customer
database: its SLO, creation/drop timestamps, accumulated downtime (for
the SLA penalty in §5.1), and the behaviour flags Toto's disk models
key on (high initial growth, predictable rapid growth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SqlDbError
from repro.sqldb.editions import Edition, GP_TEMPDB_BASELINE_GB
from repro.sqldb.slo import ServiceLevelObjective


@dataclass
class DatabaseInstance:
    """One customer database hosted (or once hosted) in the ring.

    Attributes:
        db_id: unique id, stable across failovers.
        slo: purchased configuration.
        created_at: simulation timestamp of creation.
        dropped_at: timestamp of drop, ``None`` while active.
        initial_data_gb: data size at creation (restored mdf, bulk
            load, or a small fresh database).
        downtime_seconds: accumulated customer-visible unavailability;
            feeds the SLA credit calculation.
        high_initial_growth: Toto's Initial Creation Growth pattern is
            active for the first 30 minutes (§4.2.3).
        initial_growth_total_gb: total growth the pattern will deliver.
        rapid_growth: the Predictable Rapid Growth state machine governs
            this database (§4.2.4).
        from_bootstrap: True for databases placed before the benchmark
            officially starts (growth frozen during bootstrap, §5.2).
    """

    db_id: str
    slo: ServiceLevelObjective
    created_at: int
    initial_data_gb: float
    dropped_at: Optional[int] = None
    downtime_seconds: float = 0.0
    high_initial_growth: bool = False
    initial_growth_total_gb: float = 0.0
    rapid_growth: bool = False
    from_bootstrap: bool = False
    failover_count: int = 0
    #: Replica ids released at drop time (lets per-node caches clean up).
    dropped_replica_ids: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.initial_data_gb < 0:
            raise SqlDbError(
                f"{self.db_id}: negative initial data size "
                f"{self.initial_data_gb}")

    @property
    def edition(self) -> Edition:
        return self.slo.edition

    @property
    def is_active(self) -> bool:
        return self.dropped_at is None

    @property
    def is_local_store(self) -> bool:
        return self.edition.is_local_store

    def lifetime_seconds(self, now: int) -> int:
        """Seconds the database has existed (up to drop time)."""
        end = self.dropped_at if self.dropped_at is not None else now
        if end < self.created_at:
            raise SqlDbError(
                f"{self.db_id}: lifetime query at {now} before creation "
                f"{self.created_at}")
        return end - self.created_at

    def downtime_fraction(self, now: int) -> float:
        """Downtime as a fraction of lifetime (0 for zero lifetime)."""
        lifetime = self.lifetime_seconds(now)
        if lifetime <= 0:
            return 0.0
        return self.downtime_seconds / lifetime

    def initial_local_disk_gb(self) -> float:
        """Local disk footprint each replica starts with.

        Local-store databases carry their full data on the node;
        remote-store databases only consume the tempdb baseline (§2).
        """
        if self.is_local_store:
            return self.initial_data_gb
        return GP_TEMPDB_BASELINE_GB

    def record_downtime(self, seconds: float) -> None:
        """Accumulate customer-visible unavailability from a failover."""
        if seconds < 0:
            raise SqlDbError(f"{self.db_id}: negative downtime {seconds}")
        self.downtime_seconds += seconds
        self.failover_count += 1

    def mark_dropped(self, now: int) -> None:
        if self.dropped_at is not None:
            raise SqlDbError(f"{self.db_id}: already dropped")
        if now < self.created_at:
            raise SqlDbError(
                f"{self.db_id}: drop at {now} before creation {self.created_at}")
        self.dropped_at = now
