"""The fleet density study: region-scale packing in one sweep.

The single-cluster density study (§5, :mod:`repro.experiments.density`)
re-runs one 14-node ring at four density settings. At region scale the
same question — how hard can the control plane pack tenants before QoS
and revenue degrade — is asked across a *heterogeneous fleet*: clusters
are stamped from one template but cycle through the density levels, so
one 100-cluster sweep yields a per-density comparison with ~25 clusters
of statistical weight behind every level and ≥1M databases in total.

Each worker reduces its cluster to a
:class:`~repro.fleet.summary.ClusterSummary` before anything crosses
the process boundary, so the study's parent-side footprint is ~100
small summaries regardless of the million databases simulated
(docs/FLEET.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.runner import BenchmarkResult
from repro.experiments.report import format_table
from repro.experiments.scenarios import DEFAULT_SCENARIO_SEED
from repro.fleet import (
    ClusterTemplate,
    FleetResult,
    FleetTopology,
    fleet_obs_export,
    run_fleet,
)
from repro.obs.export import ObsExport
from repro.obs.metrics import MetricRegistry
from repro.obs.sink import ListSink
from repro.parallel.executor import ProgressCallback, SweepExecutor
from repro.units import MINUTE

#: The paper's density levels, cycled across the fleet's clusters.
FLEET_DENSITIES: Tuple[float, ...] = (1.0, 1.1, 1.2, 1.4)

#: Default per-cluster ring size. 640 gen5 nodes host the Table 2
#: population scaled ~46x — 10,057 databases — so the default
#: 100-cluster fleet simulates 1,005,700 databases.
FLEET_NODE_COUNT = 640


@dataclass(frozen=True)
class FleetDensityRow:
    """One density level's region-wide roll-up (spec-ordered clusters)."""

    density: float
    clusters: int
    databases_created: int
    active_databases: int
    reserved_cores: float
    disk_gb: float
    creation_redirects: int
    failover_count: int
    revenue_adjusted: float

    @property
    def density_pct(self) -> int:
        return int(round(self.density * 100))


class FleetDensityStudy:
    """100 clusters, ≥1M databases, one deterministic sweep.

    ``max_workers`` only controls how the sweep executes — serial and
    sharded runs produce byte-identical summaries and digests
    (tests/test_fleet_merge.py) — so CI hardware picks the wall clock,
    never the numbers.
    """

    def __init__(self, cluster_count: int = 100,
                 node_count: int = FLEET_NODE_COUNT,
                 days: float = 0.1,
                 densities: Tuple[float, ...] = FLEET_DENSITIES,
                 base_seed: int = DEFAULT_SCENARIO_SEED,
                 chaos: Optional[str] = None,
                 backend: str = "annealing",
                 max_workers: Optional[int] = None,
                 progress: Optional[ProgressCallback] = None) -> None:
        self.topology = FleetTopology(
            cluster_count=cluster_count,
            template=ClusterTemplate(
                node_count=node_count,
                days=days,
                report_interval=30 * MINUTE,
                chaos=chaos,
                backend=backend,
            ),
            base_seed=base_seed,
            prefix="density",
            densities=tuple(densities),
        )
        self.max_workers = max_workers
        self.progress = progress
        self._result: Optional[FleetResult] = None

    # ------------------------------------------------------------------

    def run(self) -> FleetResult:
        """Execute (or return) the cached fleet sweep."""
        if self._result is None:
            self._result = run_fleet(self.topology,
                                     max_workers=self.max_workers,
                                     progress=self.progress)
        return self._result

    # ------------------------------------------------------------------

    def density_rows(self) -> List[FleetDensityRow]:
        """Region KPIs per density level, ascending density.

        Within each level, clusters accumulate in spec order — the same
        sequential-float contract as the full fleet merge.
        """
        result = self.run()
        levels = sorted(set(summary.density
                            for summary in result.summaries))
        rows: List[FleetDensityRow] = []
        for level in levels:
            clusters = 0
            created = 0
            active = 0
            cores = 0.0
            disk = 0.0
            redirects = 0
            failovers = 0
            adjusted = 0.0
            for summary in result.summaries:
                if summary.density != level:
                    continue
                clusters += 1
                created += summary.databases_created
                active += summary.active_databases
                cores += summary.final_reserved_cores
                disk += summary.final_disk_gb
                redirects += summary.creation_redirects
                failovers += summary.failover_count
                adjusted += summary.revenue_adjusted
            rows.append(FleetDensityRow(
                density=level,
                clusters=clusters,
                databases_created=created,
                active_databases=active,
                reserved_cores=cores,
                disk_gb=disk,
                creation_redirects=redirects,
                failover_count=failovers,
                revenue_adjusted=adjusted,
            ))
        return rows

    def format_summary(self) -> str:
        result = self.run()
        kpis = result.kpis
        header = (f"fleet: {kpis.clusters} clusters, {kpis.nodes} nodes, "
                  f"{kpis.databases_created} databases "
                  f"({result.mode} sweep, digest {result.digest[:12]})")
        rows = [(row.density_pct, row.clusters, row.databases_created,
                 round(row.reserved_cores), round(row.disk_gb),
                 row.creation_redirects, row.failover_count,
                 round(row.revenue_adjusted))
                for row in self.density_rows()]
        table = format_table(
            ["density %", "clusters", "databases", "reserved cores",
             "disk GB", "redirects", "failovers", "adjusted $"],
            rows, title="Fleet density study — region KPIs per level")
        return header + "\n\n" + table

    def obs_export(self) -> ObsExport:
        """Region-wide observability artifacts for the merged run."""
        return fleet_obs_export(self.run())


# ----------------------------------------------------------------------
# Backend comparison
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BackendClusterSummary:
    """One cluster's KPIs as kept by the backend comparison.

    A separate reduction from :class:`~repro.fleet.summary.ClusterSummary`
    on purpose: the comparison's headline KPI — failed-over cores — is
    not a fleet-summary field, and the fleet digest pins forbid adding
    one there.
    """

    name: str
    seed: int
    density: float
    reserved_cores: float
    disk_gb: float
    databases_created: int
    active_databases: int
    creation_redirects: int
    failover_count: int
    failover_cores: float
    revenue_adjusted: float
    events_executed: int


def summarize_backend_result(result: BenchmarkResult) -> BackendClusterSummary:
    """Reduce one cluster's run for the backend comparison.

    Module-level on purpose: it is the sweep executor's ``reducer`` and
    must pickle to the pooled workers, or the sweep runs serially.
    """
    kpis = result.kpis
    return BackendClusterSummary(
        name=result.scenario.name,
        seed=result.scenario.seed,
        density=result.scenario.ring.density,
        reserved_cores=kpis.final_reserved_cores,
        disk_gb=kpis.final_disk_gb,
        databases_created=len(result.databases),
        active_databases=kpis.active_databases,
        creation_redirects=kpis.creation_redirects,
        failover_count=kpis.failovers.count,
        failover_cores=kpis.failovers.total_cores_moved,
        revenue_adjusted=result.revenue.total_adjusted,
        events_executed=result.events_executed,
    )


def backend_digest(summaries: Sequence[BackendClusterSummary]) -> str:
    """Canonical content hash of one backend's summaries.

    Same canonical-JSON recipe as
    :func:`~repro.fleet.summary.fleet_digest`, so per-backend digests
    are safe to pin as golden values in tests.
    """
    payload = json.dumps([asdict(summary) for summary in summaries],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BackendKpis:
    """One backend's roll-up across its fleet, in spec order."""

    backend: str
    clusters: int
    databases_created: int
    active_databases: int
    reserved_cores: float
    disk_gb: float
    creation_redirects: int
    failover_count: int
    failover_cores: float
    revenue_adjusted: float


# totolint: merge-fn
def merge_backend_summaries(backend: str,
                            summaries: Sequence[BackendClusterSummary]
                            ) -> BackendKpis:
    """Fold one backend's summaries, strictly in spec order.

    Sequential left-to-right float accumulation — the same merge
    contract as :func:`~repro.fleet.summary.merge_summaries`, so serial
    and sharded comparison runs agree bit for bit.
    """
    created = 0
    active = 0
    cores = 0.0
    disk = 0.0
    redirects = 0
    failovers = 0
    failover_cores = 0.0
    adjusted = 0.0
    for summary in summaries:
        created += summary.databases_created
        active += summary.active_databases
        cores += summary.reserved_cores
        disk += summary.disk_gb
        redirects += summary.creation_redirects
        failovers += summary.failover_count
        failover_cores += summary.failover_cores
        adjusted += summary.revenue_adjusted
    return BackendKpis(
        backend=backend,
        clusters=len(summaries),
        databases_created=created,
        active_databases=active,
        reserved_cores=cores,
        disk_gb=disk,
        creation_redirects=redirects,
        failover_count=failovers,
        failover_cores=failover_cores,
        revenue_adjusted=adjusted,
    )


@dataclass(frozen=True)
class BackendRunResult:
    """One backend's half of the comparison."""

    backend: str
    topology: FleetTopology
    summaries: Tuple[BackendClusterSummary, ...]
    kpis: BackendKpis
    digest: str
    mode: str


class BackendComparisonStudy:
    """The same fleet run under every orchestrator backend.

    Every backend gets an *identical* workload — same base seed, same
    density cycle, same cluster names — differing only in the
    template's ``backend`` field, so any KPI delta (redirects,
    failed-over cores, adjusted revenue) is attributable to the
    scheduler alone. Backends run in tuple order; within one backend
    the sweep is the standard deterministic fleet fan-out.
    """

    def __init__(self, cluster_count: int = 8,
                 node_count: int = 14,
                 days: float = 0.1,
                 densities: Tuple[float, ...] = FLEET_DENSITIES,
                 base_seed: int = DEFAULT_SCENARIO_SEED,
                 chaos: Optional[str] = None,
                 backends: Tuple[str, ...] = ("annealing", "k8s"),
                 max_workers: Optional[int] = None,
                 progress: Optional[ProgressCallback] = None) -> None:
        self.backends = tuple(backends)
        self.topologies: Dict[str, FleetTopology] = {
            backend: FleetTopology(
                cluster_count=cluster_count,
                template=ClusterTemplate(
                    node_count=node_count,
                    days=days,
                    report_interval=30 * MINUTE,
                    chaos=chaos,
                    backend=backend,
                ),
                base_seed=base_seed,
                prefix="orch",
                densities=tuple(densities),
            )
            for backend in self.backends
        }
        self.max_workers = max_workers
        self.progress = progress
        self._results: Optional[Dict[str, BackendRunResult]] = None

    # ------------------------------------------------------------------

    def run(self) -> Dict[str, BackendRunResult]:
        """Execute (or return) the per-backend sweeps, in tuple order."""
        if self._results is None:
            results: Dict[str, BackendRunResult] = {}
            for backend in self.backends:
                topology = self.topologies[backend]
                executor = SweepExecutor(max_workers=self.max_workers,
                                         progress=self.progress,
                                         reducer=summarize_backend_result)
                try:
                    summaries = tuple(executor.run(topology.scenarios()))
                    mode = executor.last_mode or "serial"
                finally:
                    executor.shutdown()
                results[backend] = BackendRunResult(
                    backend=backend,
                    topology=topology,
                    summaries=summaries,
                    kpis=merge_backend_summaries(backend, summaries),
                    digest=backend_digest(summaries),
                    mode=mode,
                )
            self._results = results
        return self._results

    # ------------------------------------------------------------------

    def format_summary(self) -> str:
        results = self.run()
        first = next(iter(results.values()))
        topo = first.topology
        levels = sorted(set(topo.densities)) or [topo.template.density]
        header = (f"backend comparison: {topo.cluster_count} clusters x "
                  f"{topo.template.node_count} nodes per backend, "
                  f"densities {', '.join(f'{d:g}' for d in levels)}")
        rows = []
        for backend in self.backends:
            kpis = results[backend].kpis
            rows.append((backend, kpis.clusters, kpis.databases_created,
                         round(kpis.reserved_cores),
                         kpis.creation_redirects,
                         kpis.failover_count,
                         round(kpis.failover_cores),
                         round(kpis.revenue_adjusted)))
        table = format_table(
            ["backend", "clusters", "databases", "reserved cores",
             "redirects", "failovers", "failed-over cores", "adjusted $"],
            rows, title="Backend comparison — identical fleet per backend")
        digests = "\n".join(
            f"  {backend}: digest {results[backend].digest[:12]} "
            f"({results[backend].mode} sweep)"
            for backend in self.backends)
        return header + "\n\n" + table + "\n\n" + digests

    def metric_registry(self) -> MetricRegistry:
        """Per-backend KPI catalogue (``toto_backend_<name>_*``)."""
        registry = MetricRegistry()
        for backend in self.backends:
            kpis = self.run()[backend].kpis
            stem = f"toto_backend_{backend}"
            gauges = (
                (f"{stem}_reserved_cores",
                 f"Reserved cores at run end under the {backend} backend.",
                 kpis.reserved_cores),
                (f"{stem}_failover_cores",
                 f"Cores moved by failovers under the {backend} backend.",
                 kpis.failover_cores),
                (f"{stem}_adjusted_revenue",
                 f"Adjusted revenue under the {backend} backend.",
                 kpis.revenue_adjusted),
            )
            for name, help_text, value in gauges:
                registry.gauge(name, help_text, lambda value=value: value)
            counters = (
                (f"{stem}_redirects_total",
                 f"Creation redirects under the {backend} backend.",
                 float(kpis.creation_redirects)),
                (f"{stem}_capacity_failovers_total",
                 f"Capacity failovers under the {backend} backend.",
                 float(kpis.failover_count)),
            )
            for name, help_text, value in counters:
                registry.counter(name, help_text, lambda value=value: value)
        return registry

    def obs_export(self) -> ObsExport:
        """Comparison artifacts through the standard obs sinks."""
        sink = ListSink()
        for backend in self.backends:
            result = self.run()[backend]
            kpis = result.kpis
            sink.emit({
                "type": "sample",
                "backend": backend,
                "digest": result.digest,
                "metrics": {
                    f"toto_backend_{backend}_reserved_cores":
                        kpis.reserved_cores,
                    f"toto_backend_{backend}_redirects_total":
                        float(kpis.creation_redirects),
                    f"toto_backend_{backend}_capacity_failovers_total":
                        float(kpis.failover_count),
                    f"toto_backend_{backend}_failover_cores":
                        kpis.failover_cores,
                    f"toto_backend_{backend}_adjusted_revenue":
                        kpis.revenue_adjusted,
                },
            })
        return ObsExport(metrics_jsonl=sink.render(),
                         metrics_prom=self.metric_registry().to_prometheus())
