"""The report-sweep plan and RgManager's bindings against the per-report
path they replaced.

Two tenant rings are built from one seed. One sweeps with the plan
(``TenantRing._sweep_plan``) and RgManager's per-replica bindings. The
other sweeps the way the ring did before both existed, kept here as
the scalar reference: it sorts every service's replicas on every
sweep, looks each metric's model up with ``TotoModelSet.find``, builds
a ``ModelContext`` per modeled metric (acquiring the node's stream
there) and formats the Naming-Service key on every call. Both rings go
through the same creates, drops, node failures, moves, model
publications, maintenance and chaos windows; after every step their
reports, naming stores, RPC counters and DetSan ledgers must agree,
and the plan the ring holds must equal one built from scratch.
"""

from typing import Dict, List, NamedTuple, Set

import pytest

from repro.analysis.detsan import DetSanRecorder
from repro.chaos.faults import FaultKind, FaultSchedule, FaultSpec
from repro.chaos.injector import FaultInjector
from repro.core.disk_models import InitialGrowthSpec, RapidGrowthSpec
from repro.core.memory_model import MemoryUsageModel
from repro.core.model_base import BinnedUniform, ModelContext, TotoModelSet
from repro.core.model_xml import TotoModelDocument
from repro.core.orchestrator import TotoOrchestrator
from repro.core.selectors import ALL_DATABASES
from repro.errors import NamingUnavailableError
from repro.fabric.metrics import DISK_GB, MEMORY_GB
from repro.fabric.naming import NamingService
from repro.fabric.replica import Replica, ReplicaRole
from repro.rng import RngRegistry
from repro.simkernel import SimulationKernel
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.editions import Edition
from repro.sqldb.rgmanager import (
    DYNAMIC_METRICS,
    RgManager,
    persisted_load_key,
)
from repro.sqldb.slo import get_slo
from repro.sqldb.tenant_ring import TenantRing, TenantRingConfig
from repro.units import MINUTE
from tests.conftest import SMALL_CAPACITIES, make_flat_disk_model

SEED = 20211
INTERVAL = 5 * MINUTE
#: Each step runs two sweeps before the rings are compared.
STEP = 2 * INTERVAL


# ----------------------------------------------------------------------
# The scalar reference: the report path before the plan and bindings
# ----------------------------------------------------------------------

def reference_order(replica: Replica):
    return (not replica.is_primary, replica.replica_id)


class ReferenceRgManager(RgManager):
    """A find per metric, a context per modeled metric, a key per call."""

    def get_metric_loads(self, replica, database, now, interval_seconds):
        self.rpcs_served += 1
        loads = {}
        for metric in DYNAMIC_METRICS:
            model = (self.model_set.find(metric, database)
                     if self.model_set is not None else None)
            if model is None:
                loads[metric] = replica.load(metric)
            elif model.persisted:
                loads[metric] = self._persisted(
                    model, replica, database, now, interval_seconds, metric)
            else:
                memory = self._metric_memory(metric)
                context = self._context(
                    replica, database, now, interval_seconds,
                    memory.get(replica.replica_id), metric)
                value = model.next_value(context)
                memory[replica.replica_id] = value
                loads[metric] = value
        return loads

    def _context(self, replica, database, now, interval_seconds, previous,
                 metric):
        return ModelContext(now=now, interval_seconds=interval_seconds,
                            database=database, is_primary=replica.is_primary,
                            previous_value=previous, rng=self._stream(metric),
                            start_weekday=self.start_weekday)

    def _persisted(self, model, replica, database, now, interval_seconds,
                   metric):
        key = persisted_load_key(database.db_id, metric)
        mirror = self._metric_memory("lkg:" + metric)
        try:
            previous = self.naming.get_or_default(key)
        except NamingUnavailableError:
            self.naming_degraded += 1
            previous = mirror.get(replica.replica_id)
            context = self._context(replica, database, now,
                                    interval_seconds, previous, metric)
            if replica.is_primary:
                value = model.next_value(context)
                mirror[replica.replica_id] = value
                return value
            if previous is None:
                return model.initial_value(context)
            return float(previous)
        context = self._context(replica, database, now, interval_seconds,
                                previous, metric)
        if replica.is_primary:
            value = model.next_value(context)
            try:
                self.naming.put(key, value)
            except NamingUnavailableError:
                self.naming_degraded += 1
            mirror[replica.replica_id] = value
            return value
        if previous is None:
            return model.initial_value(context)
        mirror[replica.replica_id] = float(previous)
        return float(previous)


class ReferenceRing(TenantRing):
    """A ring that sorts, looks up and reports per replica every sweep."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rgmanagers = [
            ReferenceRgManager(node_id=rgmanager.node_id,
                               naming=rgmanager.naming,
                               rng_registry=self.rng,
                               start_weekday=rgmanager.start_weekday)
            for rgmanager in self.rgmanagers]

    def _report_sweep(self, now):
        interval = self.config.report_interval
        for record in self.cluster.services():
            database = self.control_plane.database(record.service_id)
            for replica in sorted(record.replicas, key=reference_order):
                node_id = replica.node_id
                if node_id is None:
                    continue
                if self.cluster.node(node_id).in_maintenance:
                    continue
                if self.chaos is not None and \
                        not self.chaos.rpc_gate(node_id, now):
                    continue
                loads = self.rgmanagers[node_id].get_metric_loads(
                    replica, database, now, interval)
                self.cluster.report_load(replica, loads)
        self.cluster.sweep_violations(now)
        self.report_sweeps += 1


def fresh_plan(ring: TenantRing) -> List[tuple]:
    """The sweep plan built from scratch, in today's report order."""
    plan = []
    for record in ring.cluster.services():
        database = ring.control_plane.database(record.service_id)
        for replica in sorted(record.replicas, key=reference_order):
            if replica.node_id is not None:
                plan.append((replica, ring.cluster.node(replica.node_id),
                             ring.rgmanagers[replica.node_id], database))
    return plan


# ----------------------------------------------------------------------
# The two rings and the steps they go through
# ----------------------------------------------------------------------

def document(bc_mu: float, gp_mu: float,
             primary_memory: float) -> TotoModelDocument:
    """Persisted BC disk with both growth patterns, node-local GP
    tempdb and memory, so every branch of the report path draws."""
    bins = BinnedUniform(bins=((1.0, 2.0), (2.0, 4.0)))
    rapid = RapidGrowthSpec(
        probability=1.0, steady_duration=10 * MINUTE,
        increase_duration=10 * MINUTE, between_duration=5 * MINUTE,
        decrease_duration=10 * MINUTE, increase_totals=bins,
        decrease_totals=bins)
    return TotoModelDocument(resource_models=[
        make_flat_disk_model(
            Edition.PREMIUM_BC, mu=bc_mu, sigma=1.5,
            initial_growth=InitialGrowthSpec(probability=1.0, totals=bins),
            rapid_growth=rapid),
        make_flat_disk_model(Edition.STANDARD_GP, mu=gp_mu, sigma=0.5,
                             rapid_growth=rapid),
        MemoryUsageModel(ALL_DATABASES,
                         primary_target_fraction=primary_memory),
    ])


#: A naming outage past the retry budget, a stale-read window and lost
#: RPCs from one node, all inside the "chaos" step (offsets from t=0).
CHAOS_AT = 3 * STEP
CHAOS = FaultSchedule(specs=(
    FaultSpec(FaultKind.NAMING_OUTAGE, at=CHAOS_AT + 1,
              duration=INTERVAL + 60),
    FaultSpec(FaultKind.NAMING_STALE, at=CHAOS_AT + INTERVAL + 90,
              duration=INTERVAL),
    FaultSpec(FaultKind.RPC_LOSS, at=CHAOS_AT + 1, duration=INTERVAL,
              target=2),
))


class Side(NamedTuple):
    kernel: SimulationKernel
    ring: TenantRing
    orchestrator: TotoOrchestrator
    recorder: DetSanRecorder


def build(ring_class) -> Side:
    kernel = SimulationKernel()
    recorder = DetSanRecorder()
    registry = RngRegistry(SEED, recorder=recorder)
    config = TenantRingConfig(node_count=5, base_capacities=SMALL_CAPACITIES)
    ring = ring_class(kernel, config, registry)
    orchestrator = TotoOrchestrator(kernel, ring)
    injector = FaultInjector(kernel, ring, CHAOS, registry)
    injector.install()
    injector.start()
    ring.start()
    return Side(kernel, ring, orchestrator, recorder)


def create(side: Side, slo: str, data: float, **flags) -> None:
    side.ring.control_plane.create_database(
        slo, now=side.kernel.now, initial_data_gb=data, **flags)


def step_create(side: Side) -> None:
    create(side, "BC_Gen5_2", 40.0, rapid_growth=True)
    create(side, "BC_Gen5_2", 25.0, high_initial_growth=True,
           initial_growth_total_gb=3.0)
    create(side, "BC_Gen5_4", 60.0)
    create(side, "GP_Gen5_2", 30.0, rapid_growth=True)
    create(side, "GP_Gen5_2", 20.0)
    create(side, "GP_Gen5_4", 35.0)


def step_publish_v1(side: Side) -> None:
    # Every node hosts a replica before the first modeled sweep, and
    # nothing has a previous value yet, so no node's first modeled
    # report draws.
    assert all(node.replicas for node in side.ring.cluster.nodes)
    side.orchestrator.publish_models(document(6.0, 3.0, 0.75),
                                     propagate_now=True)


def step_move_primary(side: Side) -> None:
    """The backend's move of a BC primary to its service's one free
    node, which promotes a secondary."""
    cluster = side.ring.cluster
    record = next(r for r in cluster.services() if r.replica_count > 1)
    primary = record.primary
    hosting = cluster.service_nodes(record.service_id)
    target = next(node for node in cluster.nodes
                  if node.node_id not in hosting)
    move = cluster.plb._move(side.kernel.now, primary,
                             cluster.node(primary.node_id), target, DISK_GB)
    cluster._record_moves([move])
    assert not primary.is_primary


def step_chaos(side: Side) -> None:
    """The windows of :data:`CHAOS` cover this step's two sweeps."""


def step_maintenance(side: Side) -> None:
    node = side.ring.cluster.node(3)
    node.in_maintenance = True
    side.kernel.schedule_oneshot_after(
        INTERVAL + 1, lambda: setattr(node, "in_maintenance", False))


def step_publish_v2(side: Side) -> None:
    side.orchestrator.publish_models(document(9.0, 1.0, 0.6),
                                     propagate_now=True)


def step_drop(side: Side) -> None:
    """Drop one BC database and every GP one."""
    control_plane = side.ring.control_plane
    databases = control_plane.active_databases()
    bc = [db for db in databases if db.slo.replica_count > 1]
    for database in bc[:1] + [db for db in databases
                              if db.slo.replica_count == 1]:
        control_plane.drop_database(database.db_id, side.kernel.now)


def step_fail_node_4(side: Side) -> None:
    side.ring.cluster.fail_node(4, side.kernel.now)


def step_fail_node_0(side: Side) -> None:
    """With node 4 down, every BC replica on node 0 has nowhere to go:
    it goes pending without a record."""
    cluster = side.ring.cluster
    assert cluster.fail_node(0, side.kernel.now) == []
    assert cluster.pending_replicas > 0


def step_restore(side: Side) -> None:
    side.ring.cluster.restore_node(0)
    side.ring.cluster.restore_node(4)


def step_create_more(side: Side) -> None:
    create(side, "GP_Gen5_2", 15.0)
    create(side, "BC_Gen5_2", 10.0)


STEPS = (
    ("create", step_create),
    ("publish v1", step_publish_v1),
    ("move a primary", step_move_primary),
    ("chaos", step_chaos),
    ("maintenance", step_maintenance),
    ("publish v2", step_publish_v2),
    ("drop", step_drop),
    ("fail node 4", step_fail_node_4),
    ("fail node 0", step_fail_node_0),
    ("restore", step_restore),
    ("create more", step_create_more),
)


def state(side: Side) -> Dict[str, object]:
    """Everything the two rings must agree on, bits included."""
    ring = side.ring
    naming = ring.cluster.naming
    return {
        "replicas": [(r.replica_id, r.service_id, r.node_id, r.role,
                      [(m, v.hex()) for m, v in sorted(r.reported.items())])
                     for r in ring.cluster.replicas()],
        "naming": {key: (repr(entry.value), entry.version)
                   for key, entry in naming.snapshot().items()},
        "naming_calls": (naming.reads, naming.writes),
        "rpcs": [(r.rpcs_served, r.naming_degraded)
                 for r in ring.rgmanagers],
        "sweeps": ring.report_sweeps,
        "failovers": len(ring.cluster.failovers),
        "pending": ring.cluster.pending_replicas,
        "ledger": side.recorder.entries,
    }


def plan_ids(plan) -> List[tuple]:
    return [tuple(id(part) for part in entry) for entry in plan]


class TestPlanAgainstReference:
    def test_every_step_reports_what_the_reference_reports(self):
        planned, reference = build(TenantRing), build(ReferenceRing)
        ring = planned.ring
        dropped: Set[int] = set()
        for index, (name, step) in enumerate(STEPS):
            existing = {r.replica_id for r in ring.cluster.replicas()}
            for side in (planned, reference):
                step(side)
                side.kernel.run_until((index + 1) * STEP)
            dropped |= existing - {r.replica_id
                                   for r in ring.cluster.replicas()}
            assert state(planned) == state(reference), name
            assert plan_ids(ring._sweep_plan()) == plan_ids(fresh_plan(ring)), \
                name
            assert not any(set(rgmanager._bindings) & dropped
                           for rgmanager in ring.rgmanagers), name
        # The steps reached what they were written for.
        assert dropped
        assert sum(r.naming_degraded for r in ring.rgmanagers) > 0
        assert ring.cluster.failovers
        assert any(entry[0] == "stream" and "rgmanager" in entry[2]
                   for entry in planned.recorder.entries)


# ----------------------------------------------------------------------
# Bindings, one RgManager at a time
# ----------------------------------------------------------------------

def make_db(slo: str, db_id: str = "db-1") -> DatabaseInstance:
    return DatabaseInstance(db_id=db_id, slo=get_slo(slo), created_at=0,
                            initial_data_gb=50.0)


def make_replica(role: ReplicaRole = ReplicaRole.PRIMARY) -> Replica:
    return Replica(replica_id=1, service_id="db-1", role=role, node_id=0,
                   reported={DISK_GB: 42.0, MEMORY_GB: 2.0})


class TestBindings:
    def test_binding_follows_the_database_object(self):
        """Replica id 1 reporting for another database object is bound
        again, so it gets that database's model."""
        rgmanager = RgManager(node_id=0, naming=NamingService(),
                              rng_registry=RngRegistry(3))
        rgmanager.install_models(TotoModelSet([
            make_flat_disk_model(Edition.PREMIUM_BC, mu=6.0)]), 1)
        replica = make_replica()
        bc = rgmanager.get_metric_loads(replica, make_db("BC_Gen5_2"), 300,
                                        300)
        gp = rgmanager.get_metric_loads(replica, make_db("GP_Gen5_2"), 600,
                                        300)
        assert bc[DISK_GB] == 50.0  # the BC model's initial value
        assert gp[DISK_GB] == 42.0  # no GP model: the actual load

    def test_no_binding_without_a_model_set(self):
        rgmanager = RgManager(node_id=0, naming=NamingService(),
                              rng_registry=RngRegistry(3))
        loads = rgmanager.get_metric_loads(make_replica(),
                                           make_db("GP_Gen5_2"), 300, 300)
        assert loads == {DISK_GB: 42.0, MEMORY_GB: 2.0}
        assert not rgmanager._bindings

    def test_binding_follows_the_model_set(self):
        rgmanager = RgManager(node_id=0, naming=NamingService(),
                              rng_registry=RngRegistry(3))
        database = make_db("GP_Gen5_2")
        replica = make_replica()
        rgmanager.install_models(TotoModelSet([]), 1)
        assert rgmanager.get_metric_loads(replica, database, 300,
                                          300)[DISK_GB] == 42.0
        rgmanager.install_models(TotoModelSet([make_flat_disk_model(
            Edition.STANDARD_GP, mu=6.0)]), 2)
        assert rgmanager.get_metric_loads(replica, database, 600,
                                          300)[DISK_GB] == \
            database.initial_local_disk_gb()

    @pytest.mark.parametrize("role", list(ReplicaRole))
    def test_stream_is_acquired_when_the_binding_is_built(self, role):
        """A BC secondary never draws, yet its first report acquires the
        node's disk stream, as a context built per report did."""
        recorder = DetSanRecorder()
        naming = NamingService()
        rgmanager = RgManager(node_id=0, naming=naming,
                              rng_registry=RngRegistry(3, recorder=recorder))
        rgmanager.install_models(TotoModelSet([
            make_flat_disk_model(Edition.PREMIUM_BC, mu=6.0, sigma=1.0)]), 1)
        naming.put(persisted_load_key("db-1", DISK_GB), 70.0)
        rgmanager.get_metric_loads(make_replica(role), make_db("BC_Gen5_2"),
                                   300, 300)
        assert [entry[:3] for entry in recorder.entries
                if entry[0] == "stream"] == \
            [("stream", "stream", "rgmanager/0/disk-gb")]
        draws = [entry for entry in recorder.entries if entry[0] == "draw"]
        assert bool(draws) == (role is ReplicaRole.PRIMARY)

    def test_forget_replica_drops_the_binding(self):
        rgmanager = RgManager(node_id=0, naming=NamingService(),
                              rng_registry=RngRegistry(3))
        rgmanager.install_models(TotoModelSet([]), 1)
        rgmanager.get_metric_loads(make_replica(), make_db("GP_Gen5_2"), 300,
                                   300)
        assert 1 in rgmanager._bindings
        rgmanager.forget_replica(1)
        assert 1 not in rgmanager._bindings
