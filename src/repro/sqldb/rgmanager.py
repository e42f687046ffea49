"""RgManager: the per-node resource-governance daemon.

Paper §3.2: "There is a single RgManager instance running on every
node [...] when a replica for a SQL database needs to report its CPU,
memory, and disk usage to PLB, it first consults RgManager by issuing
an RPC."

Toto's hook (§3.3.1): "We implemented Toto to leverage the existing
Azure SQL DB infrastructure by redirecting the metric request RPCs in
RgManager to sample from defined models instead of returning the
actual resource utilization. [...] If no model exists for the replica
and the load metric that is being reported, the replica's actual load
usage will be reported — this is the normal operating behavior."

Persistence semantics (§3.3.2) are implemented exactly as described:

* non-persisted metrics keep the previous value in RgManager *memory*,
  so a replica that fails over to another node loses its history and
  the model resets (memory, GP tempdb);
* persisted metrics store the previous value in the Naming Service;
  only the **primary** executes the model and writes the new value,
  while secondaries merely read and report it.

Advisory CPU usage (``cpu-used-cores``,
:class:`~repro.core.cpu_model.CpuUsageModel`) never reaches the PLB.
It is sampled only for the node's noisy-neighbor governor
(:mod:`repro.sqldb.governance`): once per sweep, and only in a ring
whose ``cpu_governance_limit`` is positive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro.core.model_base import ModelContext, ResourceModel, TotoModelSet
from repro.errors import NamingUnavailableError
from repro.fabric.metrics import CPU_USED_CORES, DISK_GB, MEMORY_GB
from repro.fabric.naming import NamingService
from repro.fabric.replica import Replica
from repro.rng import BatchedStream, RngRegistry
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.governance import CpuGovernor

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.cpu_model import CpuUsageModel

#: Metrics a replica re-reports every interval (CPU reservations are
#: static and never re-reported).
DYNAMIC_METRICS = (DISK_GB, MEMORY_GB)


def persisted_load_key(db_id: str, metric: str) -> str:
    """Naming-Service key under which a persisted load is stored."""
    return f"toto/load/{db_id}/{metric}"


#: Prefix distinguishing the node-local last-known-good mirror of a
#: *persisted* metric from ordinary non-persisted memory entries in
#: the same ``(replica_id, metric-key)`` map.
_MIRROR_PREFIX = "lkg:"


class RgManager:
    """One node's resource governor with the Toto interception hook.

    Args:
        node_id: the node this instance runs on.
        naming: the cluster's Naming Service (shared).
        rng_registry: seeded stream source; each (node, metric) pair
            gets its own stream, mirroring the paper's per-node seeds
            ("a unique seed was provided to every node", §5.2).
        start_weekday: weekday of simulation time zero.
    """

    def __init__(self, node_id: int, naming: NamingService,
                 rng_registry: RngRegistry, start_weekday: int = 0) -> None:
        self.node_id = node_id
        self.naming = naming
        self._rng_registry = rng_registry
        self.start_weekday = start_weekday
        #: The active model set; replaced on every XML refresh. None
        #: means Toto is not injected and actual loads pass through.
        self.model_set: Optional[TotoModelSet] = None
        #: Node-local previous values for non-persisted metrics,
        #: keyed metric -> replica id -> value. Lost when a replica
        #: moves to a different node — the intended reset semantics.
        #: Two-level (rather than tuple-keyed) so dropping a replica
        #: touches a handful of small maps instead of scanning every
        #: key, and the hot report loop pays one lookup per metric,
        #: not one tuple allocation per value.
        self._memory: Dict[str, Dict[int, float]] = {}
        #: Version of the model XML this instance last parsed.
        self.model_version = 0
        self.rpcs_served = 0
        #: Optional noisy-neighbor CPU governor (§3.2 / §5.5). When
        #: set, the advisory modeled CPU usage of every hosted replica
        #: is tracked and throttled node-wide each sweep.
        self.governor: Optional[CpuGovernor] = None
        #: Last sampled advisory CPU usage per replica (the governor's
        #: input) and the governor's output.
        self._cpu_usage_raw: Dict[int, float] = {}
        self.cpu_usage_governed: Dict[int, float] = {}
        #: Metric-report RPCs answered from node-local last-known-good
        #: state because the Naming Service stayed unreachable past the
        #: retry budget.
        self.naming_degraded = 0
        #: Per-metric stream handles. The registry already memoizes by
        #: spawn key, but deriving that key hashes the name path — too
        #: hot for a lookup that happens on every metric-report RPC.
        self._streams: Dict[str, np.random.Generator] = {}

    # ------------------------------------------------------------------

    def install_models(self, model_set: Optional[TotoModelSet],
                       version: int) -> None:
        """Replace the active model set (called by the XML refresh)."""
        self.model_set = model_set
        self.model_version = version

    def forget_replica(self, replica_id: int) -> None:
        """Drop node-local state for a replica that left this node."""
        for per_metric in self._memory.values():
            per_metric.pop(replica_id, None)
        self._cpu_usage_raw.pop(replica_id, None)
        self.cpu_usage_governed.pop(replica_id, None)

    def _metric_memory(self, metric: str) -> Dict[int, float]:
        """The per-replica memory map of one metric (created lazily)."""
        per_metric = self._memory.get(metric)
        if per_metric is None:
            per_metric = {}
            self._memory[metric] = per_metric
        return per_metric

    def _stream(self, metric: str) -> np.random.Generator:
        stream = self._streams.get(metric)
        if stream is None:
            stream = self._rng_registry.stream(
                "rgmanager", self.node_id, metric)  # totolint: substream=rgmanager/*/*
            self._streams[metric] = stream
        return stream

    # ------------------------------------------------------------------

    def get_metric_loads(self, replica: Replica, database: DatabaseInstance,
                         now: int, interval_seconds: int) -> Dict[str, float]:
        """Answer the replica's metric-report RPC.

        Returns the loads the replica should report to the PLB for
        every dynamic metric: model-driven where a model applies,
        otherwise the replica's actual (last reported) load.
        """
        self.rpcs_served += 1
        loads: Dict[str, float] = {}
        for metric in DYNAMIC_METRICS:
            model = (self.model_set.find(metric, database)
                     if self.model_set is not None else None)
            if model is None:
                loads[metric] = replica.load(metric)
            elif model.persisted:
                loads[metric] = self._persisted_value(
                    model, replica, database, now, interval_seconds, metric)
            else:
                loads[metric] = self._memory_value(
                    model, replica, database, now, interval_seconds, metric)
        return loads

    def observe_cpu_usage_batch(
            self, reporters: Sequence[Tuple[Replica, DatabaseInstance]],
            now: int) -> None:
        """Sample the governor's input for one sweep (§3.2).

        ``reporters`` are the (replica, database) pairs that reported
        from this node this sweep, in report order. All of them draw
        from the node's one CPU substream, so the sweep's utilization
        draws are one masked array-parameter normal call, draw for draw
        the scalar sequence (:class:`~repro.rng.BatchedStream`). The
        values never reach the PLB: they feed the node-local governor,
        which runs once per sweep via :meth:`apply_cpu_governance`.
        """
        if self.model_set is None:
            return
        sampled: List[Tuple[Replica, DatabaseInstance, CpuUsageModel]] = []
        mus: List[float] = []
        sigmas: List[float] = []
        for replica, database in reporters:
            # Only CpuUsageModel models the advisory CPU metric.
            model = cast("Optional[CpuUsageModel]",
                         self.model_set.find(CPU_USED_CORES, database))
            if model is None:
                continue
            mu, sigma = model.utilization_params(now)
            sampled.append((replica, database, model))
            mus.append(mu)
            sigmas.append(sigma)
        if not sampled:
            return
        draws = BatchedStream(self._stream(CPU_USED_CORES)).normals(
            mus, sigmas)
        usage = self._cpu_usage_raw
        for (replica, database, model), draw in zip(sampled, draws):
            usage[replica.replica_id] = model.value_from_utilization(
                float(draw), replica.is_primary, database)

    def apply_cpu_governance(self, interval_seconds: int) -> None:
        """Run the node's CPU governor over the last sweep's usage."""
        if self.governor is None or not self._cpu_usage_raw:
            return
        self.cpu_usage_governed = self.governor.govern(
            self._cpu_usage_raw, interval_seconds)

    # ------------------------------------------------------------------

    def _context(self, replica: Replica, database: DatabaseInstance,
                 now: int, interval_seconds: int,
                 previous: Optional[float], metric: str) -> ModelContext:
        return ModelContext(
            now=now,
            interval_seconds=interval_seconds,
            database=database,
            is_primary=replica.is_primary,
            previous_value=previous,
            rng=self._stream(metric),
            start_weekday=self.start_weekday,
        )

    def _memory_value(self, model: ResourceModel, replica: Replica,
                      database: DatabaseInstance, now: int,
                      interval_seconds: int, metric: str) -> float:
        """Non-persisted path: previous value lives in node memory."""
        memory = self._metric_memory(metric)
        previous = memory.get(replica.replica_id)
        context = self._context(replica, database, now, interval_seconds,
                                previous, metric)
        value = model.next_value(context)
        memory[replica.replica_id] = value
        return value

    def _persisted_value(self, model: ResourceModel, replica: Replica,
                         database: DatabaseInstance, now: int,
                         interval_seconds: int, metric: str) -> float:
        """Persisted path (§3.3.2).

        Only the primary executes the model and writes the new value
        back to the Naming Service; secondaries report whatever is
        stored, guaranteeing a newly promoted primary resumes from the
        previous primary's load.

        Graceful degradation: when the Naming Service stays unreachable
        past the retry budget (an injected outage), the node falls back
        to its last-known-good mirror of the persisted value and keeps
        reporting — losing durability for the window, never the run.
        """
        key = persisted_load_key(database.db_id, metric)
        try:
            previous = self.naming.get_or_default(key)
        except NamingUnavailableError:
            self.naming_degraded += 1
            return self._degraded_persisted_value(
                model, replica, database, now, interval_seconds, metric)
        context = self._context(replica, database, now, interval_seconds,
                                previous, metric)
        mirror = self._metric_memory(_MIRROR_PREFIX + metric)
        if replica.is_primary:
            value = model.next_value(context)
            try:
                self.naming.put(key, value)
            except NamingUnavailableError:
                # Outage began between the read and the write-back; the
                # value still stands, it is just not durable yet.
                self.naming_degraded += 1
            mirror[replica.replica_id] = value
            return value
        if previous is None:
            # No primary has reported yet (e.g. secondary reports first
            # in the very first round): fall back to the model's initial
            # value without persisting it — the primary owns the write.
            return model.initial_value(context)
        mirror[replica.replica_id] = float(previous)
        return float(previous)

    def _degraded_persisted_value(self, model: ResourceModel,
                                  replica: Replica,
                                  database: DatabaseInstance, now: int,
                                  interval_seconds: int,
                                  metric: str) -> float:
        """Persisted path while the metastore is unreachable."""
        mirror = self._metric_memory(_MIRROR_PREFIX + metric)
        previous = mirror.get(replica.replica_id)
        context = self._context(replica, database, now, interval_seconds,
                                previous, metric)
        if replica.is_primary:
            value = model.next_value(context)
            mirror[replica.replica_id] = value
            return value
        if previous is None:
            return model.initial_value(context)
        return float(previous)


def clear_persisted_loads(naming: NamingService, db_id: str) -> None:
    """Remove a dropped database's persisted loads from the metastore."""
    for key in naming.keys(prefix=f"toto/load/{db_id}/"):
        naming.delete_if_exists(key)
