"""Backend conformance: every orchestrator passes the same contract.

The :class:`~repro.fabric.backend.OrchestratorBackend` seam is only
safe if every backend in ``BACKENDS`` upholds the invariants the rest of
the simulator leans on — replicas never vanish, chaos retries stay
within the backoff budget, and runs are a pure function of the
scenario regardless of sweep sharding. This suite drives each backend
through the golden moderate-chaos scenario and a small fleet merge,
pins the annealing backend byte-identically to the pre-refactor
goldens (the refactor must be a pure extraction), pins each backend's
comparison digest, and regression-tests the bootstrap spill on the
640-node seeds that used to strand at the 90% core target.
"""

import hashlib

import pytest

from repro.core.runner import BenchmarkRunner, run_scenario
from repro.core.scenario import BenchmarkScenario
from repro.experiments.fleet import BackendComparisonStudy
from repro.experiments.scenarios import (
    chaos_profile,
    paper_scenario,
    trained_artifacts,
)
from repro.fabric.cluster import BACKENDS as KNOWN_BACKENDS
from repro.fleet import ClusterTemplate, FleetTopology, run_fleet
from repro.units import MINUTE

BACKENDS = ("annealing", "k8s")

#: The pre-refactor golden chaos pins (tests/test_chaos_integration.py):
#: the annealing backend must keep reproducing them bit for bit.
ANNEALING_CHAOS_GOLDEN = dict(
    final_reserved_cores=946.0,
    creation_redirects=0,
    active_databases=219,
    failover_count=0,
    faults_injected=8,
    retries=1390,
    total_adjusted=1384.3280971819195,
    events_executed=562,
)

#: Per-backend comparison digests for the pinned small fleet (2
#: clusters x 6 nodes, densities 1.0/1.2, 0.05 days). Pure functions
#: of the topology — identical on every machine.
COMPARISON_DIGESTS = {
    "annealing": ("57df15cde08e39c8c939f48f6764110510e"
                  "00075bf590c8776f71ed551d6966c"),
    "k8s": ("cf3d920e6beb474d5915deb4df980a4ebc6"
            "77c6ba49718043e19fe0310eb76db"),
}

#: Seeds whose 640-node bootstrap used to strand on the 2-core tail
#: (free CPU and free disk on disjoint nodes) before the spill fix.
STRANDING_SEEDS = (49, 50, 52, 59)

#: sha256 of each stranding seed's post-bootstrap cluster state
#: (:func:`post_bootstrap_sha256`): which nodes make-room and the spill
#: picked, not just that the population landed.
SPILL_STATE_SHA256 = {
    49: "ac18d75e5225061e0834938b31152a39acecf483c1e254773b646b17cf092934",
    50: "f95142f76d9c55a7b756d333dce874c0fae36c712885d3438aeaf832549ed283",
    52: "92b820e93a709899e3aad9d02348306c760dba81a3cbedc4cf5c87621516831a",
    59: "bd2c323c01ead20a97fab93ef46fac9dde5d4efba5170d5965531d87b504c288",
}


def post_bootstrap_sha256(cluster):
    """Every replica's placement and loads, every move, the PLB stats."""
    digest = hashlib.sha256()
    for replica in cluster.replicas():  # replica-id order
        digest.update(repr((replica.replica_id, replica.service_id,
                            replica.role.value, replica.node_id,
                            sorted(replica.reported.items()))).encode())
    for record in cluster.failovers:
        digest.update(repr(record).encode())
    digest.update(repr(cluster.plb.stats).encode())
    return digest.hexdigest()


def test_both_backends_are_registered():
    for backend in BACKENDS:
        assert backend in KNOWN_BACKENDS


@pytest.fixture(scope="module", params=BACKENDS)
def chaos_run(request):
    """The golden 6h moderate-chaos scenario under one backend."""
    scenario = paper_scenario(
        density=1.1, days=0.25, maintenance=False,
        backend=request.param).with_chaos(chaos_profile("moderate"))
    return request.param, run_scenario(scenario)


class TestChaosConformance:
    """Every backend survives the golden fault profile intact."""

    def test_no_database_is_lost(self, chaos_run):
        """Every database ever created is either active or was
        explicitly dropped — a backend bug that strands or leaks a
        service would break this count."""
        _, result = chaos_run
        active = [db for db in result.databases if db.is_active]
        dropped = [db for db in result.databases if not db.is_active]
        assert len(active) == result.kpis.active_databases
        assert len(active) + len(dropped) == len(result.databases)
        assert result.kpis.active_databases > 0

    def test_chaos_retries_stay_within_budget(self, chaos_run):
        """Retries are bounded by the backoff budget per probe — a
        backend that thrashed the naming service would blow this up."""
        _, result = chaos_run
        chaos = result.kpis.chaos
        assert chaos is not None
        assert chaos.faults_injected > 0
        assert chaos.retries <= 5 * chaos.probes

    def test_run_is_deterministic(self, chaos_run):
        """Same scenario, same backend -> byte-identical KPIs."""
        backend, result = chaos_run
        scenario = paper_scenario(
            density=1.1, days=0.25, maintenance=False,
            backend=backend).with_chaos(chaos_profile("moderate"))
        replay = run_scenario(scenario)
        assert replay.kpis == result.kpis
        assert replay.revenue.total_adjusted \
            == result.revenue.total_adjusted
        assert replay.events_executed == result.events_executed

    def test_annealing_matches_pre_refactor_goldens(self, chaos_run):
        """The backend extraction is a pure refactor: the annealing
        path reproduces the pinned chaos goldens bit for bit."""
        backend, result = chaos_run
        if backend != "annealing":
            pytest.skip("golden pins are the annealing backend's")
        golden = ANNEALING_CHAOS_GOLDEN
        kpis = result.kpis
        assert kpis.final_reserved_cores == golden["final_reserved_cores"]
        assert kpis.creation_redirects == golden["creation_redirects"]
        assert kpis.active_databases == golden["active_databases"]
        assert kpis.failovers.count == golden["failover_count"]
        assert kpis.chaos.faults_injected == golden["faults_injected"]
        assert kpis.chaos.retries == golden["retries"]
        assert result.revenue.total_adjusted == golden["total_adjusted"]
        assert result.events_executed == golden["events_executed"]


class TestFleetMergeConformance:
    """Serial and sharded fleet sweeps agree under every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_six_cluster_merge_is_mode_independent(self, backend):
        topology = FleetTopology(
            cluster_count=6, prefix="conform",
            template=ClusterTemplate(node_count=4, days=0.05,
                                     backend=backend))
        serial = run_fleet(topology, max_workers=1)
        sharded = run_fleet(topology, max_workers=2)
        # A silent serial fallback would compare serial with serial.
        assert sharded.mode == "parallel"
        assert serial.digest == sharded.digest
        assert serial.summaries == sharded.summaries
        assert serial.kpis == sharded.kpis


class TestComparisonDigests:
    """The headline comparison is pinned per backend."""

    @pytest.fixture(scope="class")
    def study(self):
        return BackendComparisonStudy(cluster_count=2, node_count=6,
                                      days=0.05, densities=(1.0, 1.2))

    def test_per_backend_digests_pinned(self, study):
        results = study.run()
        for backend, expected in COMPARISON_DIGESTS.items():
            assert results[backend].digest == expected, backend

    def test_identical_workload_per_backend(self, study):
        """Cluster names and seeds match across backends, so every KPI
        delta in the comparison is attributable to the scheduler."""
        results = study.run()
        names = {backend: [s.name for s in results[backend].summaries]
                 for backend in results}
        seeds = {backend: [s.seed for s in results[backend].summaries]
                 for backend in results}
        assert len(set(map(tuple, names.values()))) == 1
        assert len(set(map(tuple, seeds.values()))) == 1

    def test_comparison_exports_through_obs_layer(self, study):
        export = study.obs_export()
        assert export.metrics_jsonl is not None
        assert export.metrics_prom is not None
        for backend in COMPARISON_DIGESTS:
            assert f"toto_backend_{backend}_redirects_total" \
                in export.metrics_prom
            assert f"toto_backend_{backend}_failover_cores" \
                in export.metrics_prom


@pytest.mark.fleet
class TestBootstrapSpillRegression:
    """The 640-node bootstrap lands every database at the 90% target.

    Before the spill fix these seeds wedged on the GP_Gen5_2 tail:
    nodes with free cores had no free disk and vice versa, make-room
    could not help (it only sheds CPU), and the topology had been
    papered over with an 88% target. The backend's bootstrap spill
    swaps a disk-heavy replica out against a CPU-heavy one, so the
    full population places with zero redirects.
    """

    @pytest.mark.parametrize("seed", STRANDING_SEEDS)
    def test_previously_stranding_seed_bootstraps(self, seed):
        template = ClusterTemplate(node_count=640, days=0.1,
                                   report_interval=30 * MINUTE)
        population = template.resolved_population()
        assert population.target_core_fraction == 0.90
        scenario = BenchmarkScenario(
            name=f"spill-regression-{seed}",
            model_document=trained_artifacts().document,
            seed=seed, duration=1, ring=template.ring(1.0),
            initial_population=population)
        runner = BenchmarkRunner(scenario)
        runner._bootstrap()
        ring = runner.ring
        ring.cluster.validate_invariants()
        assert ring.control_plane.redirect_count() == 0
        assert ring.cluster.plb.stats.make_room_moves > 0
        assert post_bootstrap_sha256(ring.cluster) \
            == SPILL_STATE_SHA256[seed]
