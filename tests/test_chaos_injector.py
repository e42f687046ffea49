"""The fault injector: every fault type fires at its scheduled time,
for its scheduled duration, against its scheduled target — and an
identical chaos run is byte-identical across processes and executors.
"""

import hashlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import (
    BackoffPolicy,
    ChaosConfig,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    probe_through_backoff,
)
from repro.errors import (
    AdmissionRejected,
    FaultSpecError,
    NamingUnavailableError,
    RetryBudgetExceeded,
)
from repro.experiments.scenarios import chaos_scenario
from repro.parallel import SweepExecutor
from repro.rng import RngRegistry
from repro.units import HOUR, MINUTE

from tests.conftest import make_ring

pytestmark = pytest.mark.chaos

REPO = Path(__file__).resolve().parent.parent


def make_injector(kernel, ring, specs, backoff=None, pm=None):
    injector = FaultInjector(kernel, ring,
                             FaultSchedule(specs=tuple(specs)), ring.rng,
                             backoff=backoff, population_manager=pm)
    injector.install()
    injector.start()
    return injector


class TestFaultSpecValidation:
    def test_rejects_bad_offsets_durations_targets(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(kind=FaultKind.NODE_CRASH, at=-1, duration=60)
        with pytest.raises(FaultSpecError):
            FaultSpec(kind=FaultKind.NODE_CRASH, at=0, duration=0)
        with pytest.raises(FaultSpecError):
            FaultSpec(kind=FaultKind.NODE_CRASH, at=0, duration=60, target=-2)
        with pytest.raises(FaultSpecError):
            # Only node-targeted kinds accept a target.
            FaultSpec(kind=FaultKind.NAMING_OUTAGE, at=0, duration=60,
                      target=1)

    def test_schedule_sorts_and_counts(self):
        schedule = FaultSchedule(specs=(
            FaultSpec(kind=FaultKind.PM_STALL, at=500, duration=60),
            FaultSpec(kind=FaultKind.NODE_CRASH, at=100, duration=60,
                      target=1),
            FaultSpec(kind=FaultKind.NODE_CRASH, at=100, duration=60,
                      target=0),
        ))
        assert [spec.at for spec in schedule.specs] == [100, 100, 500]
        assert [spec.target for spec in schedule.specs] == [0, 1, None]
        assert schedule.counts() == {"node-crash": 2, "pm-stall": 1}
        assert len(schedule.by_kind(FaultKind.NODE_CRASH)) == 2


class TestBackoffPolicy:
    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(base_delay=2.0, multiplier=2.0,
                               max_delay=10.0, max_retries=6, jitter=0.0)
        rng = RngRegistry(1).stream("t")
        delays = [policy.delay(attempt, rng) for attempt in range(5)]
        assert delays == [2.0, 4.0, 8.0, 10.0, 10.0]

    def test_jitter_stays_within_band(self):
        policy = BackoffPolicy(base_delay=10.0, multiplier=1.0,
                               max_delay=10.0, jitter=0.25)
        rng = RngRegistry(7).stream("t")
        for attempt in range(50):
            assert 7.5 <= policy.delay(attempt, rng) <= 12.5

    def test_probe_succeeds_when_window_ends(self):
        policy = BackoffPolicy(jitter=0.0)
        rng = RngRegistry(1).stream("t")
        result = probe_through_backoff(policy, 0.0, rng,
                                       active_at=lambda t: t < 5.0)
        assert result.succeeded
        assert 1 <= result.retries <= policy.max_retries

    def test_probe_exhausts_on_long_window(self):
        policy = BackoffPolicy(jitter=0.0)
        rng = RngRegistry(1).stream("t")
        result = probe_through_backoff(policy, 0.0, rng,
                                       active_at=lambda t: True)
        assert not result.succeeded
        assert result.retries == policy.max_retries
        assert result.waited <= policy.max_wait

    def test_rejects_invalid_policies(self):
        with pytest.raises(FaultSpecError):
            BackoffPolicy(base_delay=0.0)
        with pytest.raises(FaultSpecError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(FaultSpecError):
            BackoffPolicy(max_retries=-1)


class TestMaterialize:
    CONFIG = ChaosConfig(profile="t", node_crashes=3, naming_outages=2,
                         rpc_loss_windows=2, pm_stalls=1)

    def test_counts_offsets_and_targets(self):
        schedule = self.CONFIG.materialize(2 * HOUR, node_count=4,
                                           rng_registry=RngRegistry(9))
        assert schedule.counts() == {"node-crash": 3, "naming-outage": 2,
                                     "rpc-loss": 2, "pm-stall": 1}
        for spec in schedule.specs:
            assert 0 <= spec.at < 2 * HOUR
            if spec.kind is FaultKind.NODE_CRASH:
                assert spec.target in (0, 1, 2, 3)
            else:
                assert spec.target is None

    def test_same_seed_materializes_identically(self):
        first = self.CONFIG.materialize(2 * HOUR, 4, RngRegistry(9))
        second = self.CONFIG.materialize(2 * HOUR, 4, RngRegistry(9))
        assert first == second

    def test_kinds_draw_from_independent_streams(self):
        """Adding crashes to a profile must not move its naming outages."""
        import dataclasses
        more_crashes = dataclasses.replace(self.CONFIG, node_crashes=9)
        base = self.CONFIG.materialize(2 * HOUR, 4, RngRegistry(9))
        grown = more_crashes.materialize(2 * HOUR, 4, RngRegistry(9))
        assert base.by_kind(FaultKind.NAMING_OUTAGE) \
            == grown.by_kind(FaultKind.NAMING_OUTAGE)
        assert base.by_kind(FaultKind.PM_STALL) \
            == grown.by_kind(FaultKind.PM_STALL)

    def test_extra_specs_ride_along(self):
        config = ChaosConfig(profile="t", extra_specs=(
            FaultSpec(kind=FaultKind.NODE_CRASH, at=60, duration=120,
                      target=3),))
        schedule = config.materialize(HOUR, 4, RngRegistry(9))
        assert schedule.by_kind(FaultKind.NODE_CRASH)[0].target == 3


class TestNodeCrashFault:
    def test_fires_at_time_for_duration_against_target(self, kernel,
                                                       rng_registry):
        ring = make_ring(kernel, rng_registry)
        injector = make_injector(kernel, ring, [
            FaultSpec(kind=FaultKind.NODE_CRASH, at=100, duration=200,
                      target=2)])
        kernel.run_until(150)
        assert not ring.cluster.node(2).available
        assert injector.telemetry.node_crashes_applied == 1
        assert injector.telemetry.faults_injected == 1
        kernel.run_until(400)
        assert ring.cluster.node(2).available
        assert injector.telemetry.node_restores == 1

    def test_crash_displaces_replicas(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        database = ring.control_plane.create_database(
            slo_name="BC_Gen5_2", now=0, initial_data_gb=4.0)
        primary_node = ring.cluster.service(database.db_id).primary.node_id
        injector = make_injector(kernel, ring, [
            FaultSpec(kind=FaultKind.NODE_CRASH, at=100, duration=600,
                      target=primary_node)])
        kernel.run_until(200)
        assert injector.telemetry.node_crashes_applied == 1
        # The primary's replica either failed over immediately or is
        # pending (anti-affinity can leave no target on a 4-node ring).
        displaced = (len(ring.cluster.failovers)
                     + ring.cluster.pending_replicas)
        assert displaced >= 1
        ring.cluster.validate_invariants()


class TestNamingFaults:
    def test_outage_exhausts_retry_budget(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        naming = ring.cluster.naming
        naming.put("k", 1)
        injector = make_injector(kernel, ring, [
            FaultSpec(kind=FaultKind.NAMING_OUTAGE, at=0, duration=HOUR)])
        with pytest.raises(NamingUnavailableError):
            naming.get("k")
        with pytest.raises(NamingUnavailableError):
            naming.put("k", 2)
        telemetry = injector.telemetry
        assert telemetry.naming_unavailable_errors == 2
        assert telemetry.retries \
            == telemetry.probes * injector.backoff.max_retries

    def test_short_outage_clears_within_backoff(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        naming = ring.cluster.naming
        naming.put("k", 1)
        injector = make_injector(
            kernel, ring,
            [FaultSpec(kind=FaultKind.NAMING_OUTAGE, at=0, duration=5)],
            backoff=BackoffPolicy(jitter=0.0))
        assert naming.get("k") == 1  # retried past the 5s window
        assert injector.telemetry.naming_unavailable_errors == 0
        assert injector.telemetry.retries >= 1

    def test_stale_window_serves_snapshot(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        naming = ring.cluster.naming
        naming.put("k", "old")
        injector = make_injector(kernel, ring, [
            FaultSpec(kind=FaultKind.NAMING_STALE, at=100, duration=100)])
        kernel.run_until(150)
        naming.put("k", "new")          # writes hit the live store
        assert naming.get("k") == "old"  # reads see the snapshot
        assert naming.version("k") == 1
        assert injector.telemetry.naming_stale_reads >= 1
        kernel.run_until(250)            # window over
        assert naming.get("k") == "new"
        assert naming.version("k") == 2


class TestControlPlaneFaults:
    def test_create_times_out_as_redirect(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        injector = make_injector(kernel, ring, [
            FaultSpec(kind=FaultKind.CONTROL_PLANE, at=0, duration=HOUR)])
        with pytest.raises(AdmissionRejected):
            ring.control_plane.create_database(
                slo_name="GP_Gen5_2", now=0, initial_data_gb=1.0)
        assert ring.control_plane.redirects[-1].reason \
            == "chaos-create-timeout"
        assert injector.telemetry.creates_timed_out == 1

    def test_drop_is_deferred_and_database_survives(self, kernel,
                                                    rng_registry):
        ring = make_ring(kernel, rng_registry)
        database = ring.control_plane.create_database(
            slo_name="GP_Gen5_2", now=0, initial_data_gb=1.0)
        injector = make_injector(kernel, ring, [
            FaultSpec(kind=FaultKind.CONTROL_PLANE, at=0, duration=HOUR)])
        with pytest.raises(RetryBudgetExceeded):
            ring.control_plane.drop_database(database.db_id, now=0)
        assert database.is_active
        assert ring.control_plane.active_count() == 1
        assert injector.telemetry.drops_deferred == 1


class TestRpcAndPmFaults:
    def test_rpc_loss_targets_one_node(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        injector = make_injector(kernel, ring, [
            FaultSpec(kind=FaultKind.RPC_LOSS, at=0, duration=600,
                      target=1)])
        assert injector.rpc_gate(node_id=1, now=10) is False
        assert injector.rpc_gate(node_id=0, now=10) is True
        assert injector.rpc_gate(node_id=1, now=700) is True  # window over
        assert injector.telemetry.rpc_reports_lost == 1

    def test_rpc_latency_delivers_after_retries(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        injector = make_injector(
            kernel, ring,
            [FaultSpec(kind=FaultKind.RPC_LATENCY, at=0, duration=5)],
            backoff=BackoffPolicy(jitter=0.0))
        assert injector.rpc_gate(node_id=0, now=0) is True
        assert injector.telemetry.rpc_reports_delayed == 1
        assert injector.telemetry.retries >= 1

    def test_pm_stall_window(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        injector = make_injector(kernel, ring, [
            FaultSpec(kind=FaultKind.PM_STALL, at=HOUR,
                      duration=2 * HOUR)])
        assert injector.population_gate(30 * MINUTE) is False
        assert injector.population_gate(90 * MINUTE) is True
        assert injector.population_gate(4 * HOUR) is False
        assert injector.telemetry.pm_ticks_stalled == 1

    def test_finish_disarms_every_gate(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        naming = ring.cluster.naming
        naming.put("k", 1)
        injector = make_injector(kernel, ring, [
            FaultSpec(kind=FaultKind.NAMING_OUTAGE, at=0, duration=HOUR),
            FaultSpec(kind=FaultKind.RPC_LOSS, at=0, duration=HOUR),
            FaultSpec(kind=FaultKind.PM_STALL, at=0, duration=HOUR)])
        injector.finish()
        assert naming.get("k") == 1
        assert injector.rpc_gate(node_id=0, now=10) is True
        assert injector.population_gate(10) is False


# ---------------------------------------------------------------------------
# Determinism of full chaos runs


def tiny_chaos_scenarios(densities=(1.0, 1.2)):
    return [chaos_scenario("moderate", density=density, days=0.05)
            for density in densities]


def digest(results):
    payload = pickle.dumps(
        [(result.scenario.name, result.kpis, result.revenue)
         for result in results],
        protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()


class TestChaosDeterminism:
    def test_two_runs_byte_identical(self):
        scenarios = tiny_chaos_scenarios([1.1])
        first = SweepExecutor(max_workers=1).run(scenarios)
        second = SweepExecutor(max_workers=1).run(scenarios)
        assert first[0].kpis.chaos is not None
        assert first[0].kpis.chaos.faults_injected > 0
        assert digest(first) == digest(second)

    def test_serial_and_pool_byte_identical(self):
        scenarios = tiny_chaos_scenarios()
        serial = SweepExecutor(max_workers=1).run(scenarios)
        executor = SweepExecutor(max_workers=2)
        try:
            pooled = executor.run(scenarios)
        finally:
            executor.shutdown()
        # A silent serial fallback would compare serial with serial.
        assert executor.last_mode == "parallel"
        assert digest(serial) == digest(pooled)


_SUBPROCESS_TEMPLATE = """\
import hashlib, pickle, sys
from repro.experiments.scenarios import chaos_scenario
from repro.parallel import SweepExecutor
scenarios = [chaos_scenario("moderate", density=d, days=0.05)
             for d in (1.0, 1.2)]
results = SweepExecutor(max_workers=1).run(scenarios)
payload = pickle.dumps(
    [(r.scenario.name, r.kpis, r.revenue) for r in results],
    protocol=pickle.HIGHEST_PROTOCOL)
sys.stdout.write(hashlib.sha256(payload).hexdigest())
"""


class TestChaosCrossProcess:
    def test_two_fresh_interpreters_agree(self):
        def run_once():
            proc = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_TEMPLATE],
                capture_output=True, text=True,
                env={"PYTHONPATH": str(REPO / "src"),
                     "PYTHONHASHSEED": "random"},
                check=False)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        assert run_once() == run_once()
