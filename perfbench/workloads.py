"""The benchmark's workloads and the layer seams its traced run wraps.

Everything here goes through the simulator's public API:
``paper_scenario``, ``ClusterTemplate``/``FleetTopology``,
``run_scenario`` and ``run_fleet``. The seams are public methods of
each layer; the :class:`~tracer.Tracer` wraps them from outside, so
the simulator itself is never edited to be measured.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.orchestrator import TotoOrchestrator
from repro.core.runner import BenchmarkRunner, run_scenario
from repro.experiments.scenarios import paper_scenario, trained_artifacts
from repro.fabric.backend import OrchestratorBackend
from repro.fabric.cluster import ServiceFabricCluster
from repro.fabric.k8s import KubernetesBackend
from repro.fabric.plb import PlacementAndLoadBalancer
from repro.fleet import runner as fleet_runner
from repro.fleet.runner import run_fleet
from repro.fleet.summary import fleet_digest, summarize_result
from repro.fleet.topology import ClusterTemplate, FleetTopology
from repro.obs.config import ObsConfig
from repro.sqldb.control_plane import ControlPlane
from repro.sqldb.population import InitialPopulationSpec
from repro.sqldb.rgmanager import RgManager
from repro.units import DAY, MINUTE

from perfbench.tracer import NO_PARENT, SpanTable, Tracer, self_times

clock = time.perf_counter

#: Worker processes for fleet-churn; 1 runs the fleet in this process
#: (``SweepExecutor``'s serial path: same reducer, merge and digest).
#: Two workers on a 2-vCPU host measured the other tenants: a host
#: slow on either core slowed the fleet by a share no one-core
#: reference kernel tracks, and the spread across invocations stayed
#: near 0.2 where the single-process workloads, scaled, read 0.03-0.05.
FLEET_WORKERS = 1

#: The measure-the-measurer configuration: every obs feature on.
OBS_ALL_ON = ObsConfig(trace=True, metrics=True, profile=True)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in BENCHMARK.json."""

    name: str
    #: Builds the workload's input from the seed: a scenario for a
    #: single-cluster workload, a topology for a fleet workload.
    build: Callable[[int], Any]
    fleet: bool = False


#: The 14-node rings bootstrap to 60% of cluster disk, not Table 2's
#: 77%: at 77% about one seed in fifty (157, 1000026, 2**31 - 1, ...)
#: strands a 4-replica Business Critical create during bootstrap with
#: fewer than 4 nodes left that fit its disk, under either backend, and
#: the run fails. At 60% none of ~300 seeds tried does.
SMALL_RING_POPULATION = InitialPopulationSpec(target_disk_fraction=0.6)


def _paper_steady(seed: int) -> Any:
    return paper_scenario(density=1.4, days=1.5, seed=seed,
                          population=SMALL_RING_POPULATION)


def _bootstrap_320(seed: int) -> Any:
    # Density 1.1 keeps every seed off the wedged-bootstrap make_room
    # path, a rare 5x outlier at the fleet default 1.0 (README.md).
    topology = FleetTopology(
        cluster_count=1, base_seed=seed, prefix="bootstrap",
        template=ClusterTemplate(node_count=320, density=1.1, days=0.06,
                                 bootstrap_settle=10 * MINUTE))
    return topology.scenarios()[0]


def _fleet_churn(seed: int) -> Any:
    return FleetTopology(
        cluster_count=6, base_seed=seed, prefix="churn",
        densities=(1.2, 1.4),
        template=ClusterTemplate(node_count=14, days=0.35,
                                 chaos="moderate", backend="k8s",
                                 population=SMALL_RING_POPULATION))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-steady", _paper_steady),
    Workload("bootstrap-320", _bootstrap_320),
    Workload("fleet-churn", _fleet_churn, fleet=True),
)}


def train() -> None:
    """The model training every workload's input depends on."""
    trained_artifacts()


# ----------------------------------------------------------------------
# Seams
# ----------------------------------------------------------------------

INIT = "core.runner.init"
RUN = "core.runner.run"
PUBLISH = "core.orchestrator.publish_models"

_BACKENDS = (PlacementAndLoadBalancer, KubernetesBackend)

#: (span name, owners, attribute): each layer's public functions. The
#: span name is the metric prefix ``<layer module>.<function>``.
SEAMS: Tuple[Tuple[str, Tuple[Any, ...], str], ...] = (
    ("sqldb.rgmanager.get_metric_loads", (RgManager,), "get_metric_loads"),
    ("sqldb.rgmanager.observe_cpu_usage_batch", (RgManager,),
     "observe_cpu_usage_batch"),
    ("fabric.cluster.report_load", (ServiceFabricCluster,), "report_load"),
    ("fabric.cluster.create_service", (ServiceFabricCluster,),
     "create_service"),
    ("fabric.backend.find_placement", _BACKENDS, "find_placement"),
    ("fabric.backend.make_room", _BACKENDS, "make_room"),
    ("fabric.backend.bootstrap_spill", (OrchestratorBackend,),
     "bootstrap_spill"),
    ("sqldb.control_plane.create_database", (ControlPlane,),
     "create_database"),
    ("sqldb.control_plane.drop_database", (ControlPlane,), "drop_database"),
    ("fabric.cluster.sweep_violations", (ServiceFabricCluster,),
     "sweep_violations"),
    ("fabric.backend.fix_violations", _BACKENDS, "fix_violations"),
    ("fabric.backend.choose_target", _BACKENDS, "choose_target"),
    ("fabric.cluster.fail_node", (ServiceFabricCluster,), "fail_node"),
    (PUBLISH, (TotoOrchestrator,), "publish_models"),
    ("core.orchestrator.refresh_all_nodes", (TotoOrchestrator,),
     "refresh_all_nodes"),
)

#: Seams with enough calls per run for a stable tail percentile.
TAIL_SEAMS = ("sqldb.rgmanager.get_metric_loads",
              "fabric.cluster.report_load",
              "sqldb.control_plane.create_database")

#: The parent-side fleet merge, as ``run_fleet`` calls it.
MERGE_FUNCTIONS = ("merge_summaries", "merge_frames", "fleet_digest")


def _describe(runner: BenchmarkRunner) -> Dict[str, Any]:
    return {"days": runner.scenario.duration / DAY,
            "events": runner.kernel.events_executed,
            "plb": runner.ring.cluster.plb.stats.as_metrics()}


def install(tracer: Tracer, layers: bool) -> None:
    """Wrap the run boundaries, and with ``layers`` every seam too.

    The run boundaries (runner construction, ``BenchmarkRunner.run``
    and ``publish_models``) cost three spans per run, so untraced runs
    keep them: they time bootstrap and simulation separately.
    """
    tracer.wrap(BenchmarkRunner, "__init__", INIT,
                before=lambda runner, scenario, *a, **k:
                tracer.begin_run(scenario.seed))
    tracer.wrap(BenchmarkRunner, "run", RUN,
                after=lambda runner: tracer.end_run(_describe(runner)))
    if not layers:
        tracer.wrap(TotoOrchestrator, "publish_models", PUBLISH)
        return
    for name, owners, attr in SEAMS:
        for owner in owners:
            tracer.wrap(owner, attr, name)
    for attr in MERGE_FUNCTIONS:
        tracer.wrap(fleet_runner, attr, f"fleet.{attr}")


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """What one run of a workload measured."""

    wall_s: float
    digest: str
    cluster_days: float
    #: Median over clusters of run start -> ``publish_models``.
    bootstrap_s: float
    #: Sum over clusters of ``publish_models`` -> run end.
    sim_s: float
    #: Parent peak RSS plus each worker's peak RSS.
    peak_rss_mb: float
    #: Completion times of the clusters, relative to the run's start.
    completions: List[float]

    @property
    def sim_s_per_cluster_day(self) -> float:
        return self.sim_s / self.cluster_days

    @property
    def fleet_s_per_cluster_day(self) -> float:
        return self.wall_s / self.cluster_days


def run_once(workload: Workload, inputs: Any, tracer: Tracer) -> Sample:
    """Run the workload once; ``tracer`` must have :func:`install` on."""
    tracer.collect_spills()  # so that a failed run's leftovers go too
    tracer.clear()
    gc.collect()
    if workload.fleet:
        done: List[float] = []
        start = clock()
        result = run_fleet(inputs, max_workers=FLEET_WORKERS,
                           progress=lambda _: done.append(clock() - start))
        wall = clock() - start
        _reap_workers()
        tracer.collect_spills()
        digest = result.digest
    else:
        start = clock()
        single = run_scenario(inputs)
        wall = clock() - start
        done = [wall]
        digest = fleet_digest([summarize_result(single)])
    table = tracer.table()
    marks = run_marks(table)
    expected = inputs.cluster_count if workload.fleet else 1
    if not len(marks) == len(tracer.runs) == expected:
        raise RuntimeError(f"{expected} clusters ran, {len(tracer.runs)} "
                           f"reported back, {len(marks)} with full marks")
    return Sample(
        wall_s=wall, digest=digest,
        cluster_days=sum(run["days"] for run in tracer.runs),
        bootstrap_s=float(np.median([p - s for s, p, _ in marks.values()])),
        sim_s=sum(e - p for _, p, e in marks.values()),
        peak_rss_mb=peak_rss_mb(tracer.runs),
        completions=done)


def run_marks(table: SpanTable) -> Dict[int, Tuple[float, float, float]]:
    """Run id -> (run start, ``publish_models`` start, run end)."""
    publish = {int(table.run[i]): float(table.start[i])
               for i in table.rows(PUBLISH)}
    return {int(table.run[i]): (float(table.start[i]),
                                publish[int(table.run[i])],
                                float(table.end[i]))
            for i in table.rows(RUN) if int(table.run[i]) in publish}


def peak_rss_mb(runs: List[Dict[str, Any]]) -> float:
    """This process's peak RSS plus the peak of every worker seen.

    Pages a worker shares copy-on-write with its parent count in both,
    so for a fleet this is an upper bound on the footprint.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers: Dict[int, int] = {}
    for run in runs:
        if run["pid"] != os.getpid():
            workers[run["pid"]] = max(workers.get(run["pid"], 0),
                                      run["maxrss_kb"])
    return (own + sum(workers.values())) / 1024.0


def _reap_workers() -> None:
    """Wait for the pool workers ``run_fleet`` shut down to exit."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def obs_pair(workload: Workload, inputs: Any) -> Tuple[Any, Any]:
    """(plain, all-obs-on) scenarios for the measure-the-measurer run.

    A fleet cannot carry an obs config through ``run_fleet``, so the
    fleet workload measures its first cluster alone.
    """
    base = inputs.scenarios()[0] if workload.fleet else inputs
    return base, base.with_obs(OBS_ALL_ON)


def timed_scenario(scenario: Any) -> Tuple[float, str]:
    """(wall seconds, digest) of one in-process scenario run."""
    gc.collect()
    start = clock()
    result = run_scenario(scenario)
    wall = clock() - start
    return wall, fleet_digest([summarize_result(result)])


# ----------------------------------------------------------------------
# The layer ledger of a traced run
# ----------------------------------------------------------------------

def seam_names() -> List[str]:
    names: List[str] = []
    for name, _, _ in SEAMS:
        if name not in names:
            names.append(name)
    return names


def ledger(table: SpanTable, runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer calls, self time and tails, plus the residual.

    Raises ``RuntimeError`` when the spans do not nest as they must:
    every layer span inside a run has to descend from that run's root
    spans, or self time and residual would not add up to the wall.
    """
    own = self_times(table)
    out: Dict[str, float] = {}
    for name in seam_names():
        rows = table.rows(name)
        out[f"{name}.calls"] = float(len(rows))
        out[f"{name}.self_s"] = float(own[rows].sum())
    for name in TAIL_SEAMS:
        micros = table.duration[table.rows(name)] * 1e6
        out[f"{name}.p50_us"] = (float(np.percentile(micros, 50))
                                 if len(micros) else 0.0)
        out[f"{name}.p99_us"] = (float(np.percentile(micros, 99))
                                 if len(micros) else 0.0)
    reports = out["fabric.cluster.report_load.calls"]
    out["fabric.cluster.us_per_replica_report"] = (
        out["fabric.cluster.report_load.self_s"] / reports * 1e6
        if reports else 0.0)
    plb: Dict[str, float] = {}
    for run in runs:
        for key, value in run["plb"].items():
            plb[key] = plb.get(key, 0.0) + value
    attempts = out["fabric.backend.find_placement.calls"]
    out["fabric.backend.placement_success_ratio"] = (
        plb["placements"] / attempts if attempts else 0.0)
    for key in ("anneal_iterations", "moves", "make_room_moves"):
        out[f"fabric.backend.{key}"] = plb[key]
    out["fleet.merge_s"] = float(sum(
        own[table.rows(f"fleet.{attr}")].sum() for attr in MERGE_FUNCTIONS))
    out["kernel.events_executed"] = float(sum(run["events"] for run in runs))

    is_root = np.zeros(len(table), dtype=bool)
    is_root[table.rows(INIT)] = True
    is_root[table.rows(RUN)] = True
    layer = (table.run != NO_PARENT) & ~is_root
    if np.any(table.parent[layer] == NO_PARENT):
        raise RuntimeError("a layer span inside a run has no root span")
    out["run_wall_s"] = float(table.duration[is_root].sum())
    out["residual_s"] = out["run_wall_s"] - float(own[layer].sum())
    if out["residual_s"] < -1e-9:
        raise RuntimeError(f"negative residual {out['residual_s']}")
    return out
