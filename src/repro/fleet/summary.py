"""Per-cluster summaries and the deterministic fleet merge.

Bounded memory is the point: a full
:class:`~repro.core.runner.BenchmarkResult` holds every telemetry
frame, failover record, and database of its run — at 100 clusters the
parent process would hold ~1M database objects. Instead the sweep
executor applies :func:`summarize_result` *inside each worker* (its
``reducer`` hook), so only a compact :class:`ClusterSummary` — scalars
plus an hourly :class:`FleetFrame` series — ever crosses the process
boundary or accumulates in the parent.

Determinism contract (docs/FLEET.md, pinned by
tests/test_fleet_merge.py):

* summaries are merged in spec order (ascending cluster index), with
  plain sequential Python float accumulation — never pairwise/numpy
  summation — so the merged KPIs are bit-identical no matter how the
  clusters were sharded across workers;
* :func:`fleet_digest` hashes the canonical JSON rendering (sorted
  keys, shortest-round-trip float repr) rather than pickle bytes, so
  pinned golden digests survive pickle-protocol and Python-version
  drift.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.runner import BenchmarkResult


@dataclass(frozen=True)
class FleetFrame:
    """One cluster-hour of telemetry, compacted for the fleet merge."""

    hour_index: int
    reserved_cores: float
    disk_gb: float
    active_databases: int
    redirects_cumulative: int
    failover_count_cumulative: int


@dataclass(frozen=True)
class ClusterSummary:
    """Everything the fleet layer keeps of one cluster's run."""

    name: str
    seed: int
    density: float
    node_count: int
    final_reserved_cores: float
    final_disk_gb: float
    core_utilization: float
    disk_utilization: float
    creation_redirects: int
    databases_created: int
    active_databases: int
    failover_count: int
    failover_downtime_seconds: float
    revenue_gross: float
    revenue_penalty: float
    revenue_adjusted: float
    penalized_databases: int
    faults_injected: int
    events_executed: int
    frames: Tuple[FleetFrame, ...]


def summarize_result(result: BenchmarkResult) -> ClusterSummary:
    """Reduce one cluster's full result to its fleet summary.

    Module-level on purpose: it is the sweep executor's ``reducer`` and
    must pickle to the pooled workers, or the sweep runs serially.
    """
    kpis = result.kpis
    revenue = result.revenue
    frames = tuple(
        FleetFrame(
            hour_index=frame.hour_index,
            reserved_cores=frame.reserved_cores,
            disk_gb=frame.disk_gb,
            active_databases=frame.active_total,
            redirects_cumulative=frame.redirects_cumulative,
            failover_count_cumulative=frame.failover_count_cumulative,
        )
        for frame in result.frames)
    return ClusterSummary(
        name=result.scenario.name,
        seed=result.scenario.seed,
        density=result.scenario.ring.density,
        node_count=result.scenario.ring.node_count,
        final_reserved_cores=kpis.final_reserved_cores,
        final_disk_gb=kpis.final_disk_gb,
        core_utilization=kpis.core_utilization,
        disk_utilization=kpis.disk_utilization,
        creation_redirects=kpis.creation_redirects,
        databases_created=len(result.databases),
        active_databases=kpis.active_databases,
        failover_count=kpis.failovers.count,
        failover_downtime_seconds=kpis.failovers.total_downtime_seconds,
        revenue_gross=revenue.total_gross,
        revenue_penalty=revenue.total_penalty,
        revenue_adjusted=revenue.total_adjusted,
        penalized_databases=revenue.penalized_databases,
        faults_injected=(kpis.chaos.faults_injected
                         if kpis.chaos is not None else 0),
        events_executed=result.events_executed,
        frames=frames,
    )


@dataclass(frozen=True)
class FleetKpis:
    """Region-level roll-up across every cluster, in spec order."""

    clusters: int
    nodes: int
    databases_created: int
    active_databases: int
    reserved_cores: float
    disk_gb: float
    creation_redirects: int
    failover_count: int
    failover_downtime_seconds: float
    revenue_gross: float
    revenue_penalty: float
    revenue_adjusted: float
    penalized_databases: int
    faults_injected: int
    events_executed: int


# totolint: merge-fn
def merge_summaries(summaries: Sequence[ClusterSummary]) -> FleetKpis:
    """Fold cluster summaries into region KPIs, strictly in spec order.

    Sequential left-to-right float accumulation: the one summation
    order every execution mode (serial, 2-worker, N-worker) reproduces
    exactly, because the input list is index-aligned with the topology
    regardless of completion order.
    """
    nodes = 0
    created = 0
    active = 0
    cores = 0.0
    disk = 0.0
    redirects = 0
    failovers = 0
    downtime = 0.0
    gross = 0.0
    penalty = 0.0
    adjusted = 0.0
    penalized = 0
    faults = 0
    events = 0
    for summary in summaries:
        nodes += summary.node_count
        created += summary.databases_created
        active += summary.active_databases
        cores += summary.final_reserved_cores
        disk += summary.final_disk_gb
        redirects += summary.creation_redirects
        failovers += summary.failover_count
        downtime += summary.failover_downtime_seconds
        gross += summary.revenue_gross
        penalty += summary.revenue_penalty
        adjusted += summary.revenue_adjusted
        penalized += summary.penalized_databases
        faults += summary.faults_injected
        events += summary.events_executed
    return FleetKpis(
        clusters=len(summaries),
        nodes=nodes,
        databases_created=created,
        active_databases=active,
        reserved_cores=cores,
        disk_gb=disk,
        creation_redirects=redirects,
        failover_count=failovers,
        failover_downtime_seconds=downtime,
        revenue_gross=gross,
        revenue_penalty=penalty,
        revenue_adjusted=adjusted,
        penalized_databases=penalized,
        faults_injected=faults,
        events_executed=events,
    )


# totolint: merge-fn
def merge_frames(summaries: Sequence[ClusterSummary]) -> List[FleetFrame]:
    """Region-wide hourly series: per-hour sums across all clusters.

    Hours are merged in ascending order; within one hour, clusters
    accumulate in spec order. Clusters missing an hour (shorter runs)
    simply contribute nothing to it.
    """
    hours: Dict[int, List[float]] = {}  # totolint: fleet-scale
    for summary in summaries:
        for frame in summary.frames:
            bucket = hours.get(frame.hour_index)
            if bucket is None:
                bucket = [0.0, 0.0, 0.0, 0.0, 0.0]
                hours[frame.hour_index] = bucket
            bucket[0] += frame.reserved_cores
            bucket[1] += frame.disk_gb
            bucket[2] += frame.active_databases
            bucket[3] += frame.redirects_cumulative
            bucket[4] += frame.failover_count_cumulative
    return [FleetFrame(hour_index=hour,
                       reserved_cores=bucket[0],
                       disk_gb=bucket[1],
                       active_databases=int(bucket[2]),
                       redirects_cumulative=int(bucket[3]),
                       failover_count_cumulative=int(bucket[4]))
            for hour, bucket in sorted(hours.items())]


def fleet_digest(summaries: Sequence[ClusterSummary]) -> str:
    """Canonical content hash of a fleet's summaries.

    JSON (sorted keys, compact separators) rather than pickle: float
    repr is the shortest round trip on every supported Python, so the
    digest is stable across interpreter versions — safe to pin as a
    golden value in tests.
    """
    payload = json.dumps([asdict(summary) for summary in summaries],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
