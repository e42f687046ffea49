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

#: One metric of a replica's binding: (metric, its model or ``None``,
#: the persisted Naming-Service key or ``None``, the memory or mirror
#: map, the node's stream for the metric).
_MetricBinding = Tuple[str, Optional[ResourceModel], Optional[str],
                       Optional[Dict[int, float]],
                       Optional[np.random.Generator]]
#: A replica's binding: the model set and database object it was built
#: for, then one entry per metric in :data:`DYNAMIC_METRICS` order.
_Binding = Tuple[TotoModelSet, DatabaseInstance, Tuple[_MetricBinding, ...]]


class RgManager:
    """One node's resource governor with the Toto interception hook.

    While a model set is installed, each replica that reports from
    this node is *bound* at its first report: per metric in
    :data:`DYNAMIC_METRICS`, the first matching model of the set, the
    memory map (or, for a persisted metric, the ``lkg:`` mirror map
    and the Naming-Service key) and the node's stream for the metric.
    The stream is acquired when the binding is built, so a secondary
    that never draws still acquires it, as every modeled report did
    before bindings existed. A binding holds while this instance keeps
    the same model-set object and the replica reports for the same
    database object; :meth:`forget_replica` drops it. What can change
    from one report to the next stays per report: the role, the
    previous value, the draw and the naming read and write.

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
        #: key, and a binding holds each metric's map directly.
        self._memory: Dict[str, Dict[int, float]] = {}
        #: Replica id -> its binding (see the class docstring).
        self._bindings: Dict[int, _Binding] = {}
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
        #: Per-metric stream handles: the node acquires each stream
        #: from the registry once, however often bindings are rebuilt,
        #: so a DetSan ledger holds one acquisition per node and metric.
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
        self._bindings.pop(replica_id, None)
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

    def _bind(self, replica_id: int, model_set: TotoModelSet,
              database: DatabaseInstance) -> "_Binding":
        """Build and keep a replica's binding (class docstring)."""
        metrics: List[_MetricBinding] = []
        for metric in DYNAMIC_METRICS:
            model = model_set.find(metric, database)
            if model is None:
                metrics.append((metric, None, None, None, None))
            elif model.persisted:
                metrics.append((
                    metric, model, persisted_load_key(database.db_id, metric),
                    self._metric_memory(_MIRROR_PREFIX + metric),
                    self._stream(metric)))
            else:
                metrics.append((metric, model, None,
                                self._metric_memory(metric),
                                self._stream(metric)))
        binding = (model_set, database, tuple(metrics))
        self._bindings[replica_id] = binding
        return binding

    # ------------------------------------------------------------------

    def get_metric_loads(self, replica: Replica, database: DatabaseInstance,
                         now: int, interval_seconds: int) -> Dict[str, float]:
        """Answer the replica's metric-report RPC.

        Returns the loads the replica should report to the PLB for
        every dynamic metric: model-driven where a model applies,
        otherwise the replica's actual (last reported) load.

        Persisted metrics follow §3.3.2: only the primary executes the
        model and writes the new value back to the Naming Service;
        secondaries report whatever is stored, so a newly promoted
        primary resumes from the previous primary's load. When the
        Naming Service stays unreachable past the retry budget (an
        injected outage), the node reads and writes its last-known-good
        mirror instead and keeps reporting — losing durability for the
        window, never the run.
        """
        self.rpcs_served += 1
        loads: Dict[str, float] = {}
        model_set = self.model_set
        if model_set is None:
            # Toto is not injected: actual loads pass through, and no
            # replica is bound before a model set arrives.
            for metric in DYNAMIC_METRICS:
                loads[metric] = replica.load(metric)
            return loads
        replica_id = replica.replica_id
        binding = self._bindings.get(replica_id)
        if (binding is None or binding[0] is not model_set
                or binding[1] is not database):
            binding = self._bind(replica_id, model_set, database)
        is_primary = replica.is_primary
        for metric, model, key, store, rng in binding[2]:
            if model is None:
                loads[metric] = replica.load(metric)
                continue
            if key is None:
                # Non-persisted: the previous value lives in node memory.
                value = model.next_value(ModelContext(
                    now, interval_seconds, database, is_primary,
                    store.get(replica_id), rng, self.start_weekday))
                store[replica_id] = value
                loads[metric] = value
                continue
            try:
                previous = self.naming.get_or_default(key)
                durable = True
            except NamingUnavailableError:
                self.naming_degraded += 1
                previous = store.get(replica_id)
                durable = False
            if is_primary:
                value = model.next_value(ModelContext(
                    now, interval_seconds, database, True, previous, rng,
                    self.start_weekday))
                if durable:
                    try:
                        self.naming.put(key, value)
                    except NamingUnavailableError:
                        # Outage began between the read and the
                        # write-back; the value still stands, it is
                        # just not durable yet.
                        self.naming_degraded += 1
            elif previous is None:
                # No primary has reported yet (e.g. secondary reports
                # first in the very first round): the model's initial
                # value, not persisted — the primary owns the write.
                loads[metric] = model.initial_value(ModelContext(
                    now, interval_seconds, database, False, None, rng,
                    self.start_weekday))
                continue
            else:
                value = float(previous)
            store[replica_id] = value
            loads[metric] = value
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


def clear_persisted_loads(naming: NamingService, db_id: str) -> None:
    """Remove a dropped database's persisted loads from the metastore."""
    for key in naming.keys(prefix=f"toto/load/{db_id}/"):
        naming.delete_if_exists(key)
