"""Tests for RgManager's interception hook and persistence semantics.

These cover the §3.3.1-3.3.2 behaviours directly: model-vs-actual
pass-through, node-local memory for non-persisted metrics (reset on
failover), and Naming-Service persistence for local-store disk
(primary executes + writes, secondaries read).
"""

import pytest

from repro.core.model_base import TotoModelSet
from repro.fabric.metrics import DISK_GB, MEMORY_GB
from repro.fabric.naming import NamingService
from repro.fabric.replica import Replica, ReplicaRole
from repro.rng import RngRegistry
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.editions import Edition
from repro.sqldb.rgmanager import RgManager, persisted_load_key
from repro.sqldb.slo import get_slo
from tests.conftest import make_flat_disk_model


@pytest.fixture
def naming():
    return NamingService()


def make_rgmanager(naming, node_id=0):
    return RgManager(node_id=node_id, naming=naming,
                     rng_registry=RngRegistry(5))


def make_db(slo="BC_Gen5_4", db_id="db-1", data=100.0):
    return DatabaseInstance(db_id=db_id, slo=get_slo(slo), created_at=0,
                            initial_data_gb=data)


def make_replica(role=ReplicaRole.PRIMARY, replica_id=1, service="db-1",
                 disk=100.0):
    return Replica(replica_id=replica_id, service_id=service, role=role,
                   node_id=0, reported={DISK_GB: disk, MEMORY_GB: 2.0})


class TestPassThrough:
    def test_no_models_reports_actual(self, naming):
        rgmanager = make_rgmanager(naming)
        replica = make_replica(disk=42.0)
        loads = rgmanager.get_metric_loads(replica, make_db(), now=300,
                                           interval_seconds=300)
        assert loads[DISK_GB] == 42.0
        assert loads[MEMORY_GB] == 2.0

    def test_unmatched_selector_reports_actual(self, naming):
        rgmanager = make_rgmanager(naming)
        rgmanager.install_models(
            TotoModelSet([make_flat_disk_model(Edition.STANDARD_GP)]), 1)
        replica = make_replica(disk=42.0)
        loads = rgmanager.get_metric_loads(replica, make_db("BC_Gen5_4"),
                                           now=300, interval_seconds=300)
        assert loads[DISK_GB] == 42.0  # BC db, GP-only model

    def test_rpc_counter(self, naming):
        rgmanager = make_rgmanager(naming)
        rgmanager.get_metric_loads(make_replica(), make_db(), 300, 300)
        rgmanager.get_metric_loads(make_replica(), make_db(), 600, 300)
        assert rgmanager.rpcs_served == 2


class TestPersistedDisk:
    """Local-store disk: primary executes and writes; secondaries read."""

    def install_bc_model(self, rgmanager, mu=10.0):
        model = make_flat_disk_model(Edition.PREMIUM_BC, mu=mu,
                                     rate_heterogeneity=0.0)
        rgmanager.install_models(TotoModelSet([model]), 1)
        return model

    def test_primary_first_report_initial_value(self, naming):
        rgmanager = make_rgmanager(naming)
        self.install_bc_model(rgmanager)
        db = make_db(data=100.0)
        loads = rgmanager.get_metric_loads(make_replica(), db, 300, 300)
        assert loads[DISK_GB] == 100.0

    def test_primary_growth_persisted(self, naming):
        rgmanager = make_rgmanager(naming)
        self.install_bc_model(rgmanager, mu=12.0)
        db = make_db(data=100.0)
        primary = make_replica()
        rgmanager.get_metric_loads(primary, db, 300, 300)
        loads = rgmanager.get_metric_loads(primary, db, 600, 300)
        assert loads[DISK_GB] == pytest.approx(103.0)  # 12 GB/20min * 5min
        assert naming.get(persisted_load_key("db-1", DISK_GB)) == \
            pytest.approx(103.0)

    def test_secondary_reads_primary_value(self, naming):
        rgmanager_a = make_rgmanager(naming, node_id=0)
        rgmanager_b = make_rgmanager(naming, node_id=1)
        self.install_bc_model(rgmanager_a, mu=12.0)
        self.install_bc_model(rgmanager_b, mu=12.0)
        db = make_db(data=100.0)
        primary = make_replica(role=ReplicaRole.PRIMARY, replica_id=1)
        secondary = make_replica(role=ReplicaRole.SECONDARY, replica_id=2)
        primary_loads = rgmanager_a.get_metric_loads(primary, db, 300, 300)
        secondary_loads = rgmanager_b.get_metric_loads(secondary, db, 300,
                                                       300)
        assert secondary_loads[DISK_GB] == primary_loads[DISK_GB]

    def test_secondary_does_not_execute_model(self, naming):
        rgmanager = make_rgmanager(naming)
        self.install_bc_model(rgmanager, mu=12.0)
        db = make_db(data=100.0)
        secondary = make_replica(role=ReplicaRole.SECONDARY)
        naming.put(persisted_load_key("db-1", DISK_GB), 250.0)
        for now in (300, 600, 900):
            loads = rgmanager.get_metric_loads(secondary, db, now, 300)
            assert loads[DISK_GB] == 250.0  # never grows it
        assert naming.get(persisted_load_key("db-1", DISK_GB)) == 250.0

    def test_secondary_before_any_primary_uses_initial(self, naming):
        rgmanager = make_rgmanager(naming)
        self.install_bc_model(rgmanager)
        db = make_db(data=77.0)
        secondary = make_replica(role=ReplicaRole.SECONDARY)
        loads = rgmanager.get_metric_loads(secondary, db, 300, 300)
        assert loads[DISK_GB] == 77.0
        # and it must NOT have claimed the persisted slot
        assert not naming.exists(persisted_load_key("db-1", DISK_GB))

    def test_disk_survives_failover(self, naming):
        """§3.3.2: on failover the newly promoted primary has the same
        disk usage as the previous primary."""
        node_a = make_rgmanager(naming, node_id=0)
        node_b = make_rgmanager(naming, node_id=1)
        self.install_bc_model(node_a, mu=12.0)
        self.install_bc_model(node_b, mu=12.0)
        db = make_db(data=100.0)
        old_primary = make_replica(role=ReplicaRole.PRIMARY, replica_id=1)
        for now in (300, 600, 900):
            last = node_a.get_metric_loads(old_primary, db, now, 300)
        # Failover: replica 2 on node B is promoted.
        new_primary = make_replica(role=ReplicaRole.PRIMARY, replica_id=2)
        new_primary.node_id = 1
        loads = node_b.get_metric_loads(new_primary, db, 1200, 300)
        assert loads[DISK_GB] == pytest.approx(last[DISK_GB] + 3.0)


class TestNonPersistedDisk:
    """Remote-store tempdb: node-local memory, reset on failover."""

    def install_gp_model(self, rgmanager, mu=12.0):
        model = make_flat_disk_model(Edition.STANDARD_GP, mu=mu,
                                     persisted=False,
                                     rate_heterogeneity=0.0)
        rgmanager.install_models(TotoModelSet([model]), 1)

    def test_grows_in_node_memory(self, naming):
        rgmanager = make_rgmanager(naming)
        self.install_gp_model(rgmanager)
        db = make_db("GP_Gen5_4")
        replica = make_replica()
        first = rgmanager.get_metric_loads(replica, db, 300, 300)
        second = rgmanager.get_metric_loads(replica, db, 600, 300)
        assert second[DISK_GB] == pytest.approx(first[DISK_GB] + 3.0)
        # nothing persisted for non-persisted metrics
        assert not naming.exists(persisted_load_key("db-1", DISK_GB))

    def test_resets_after_failover(self, naming):
        """§3.3.2: tempdb is lost on failover — the new node's
        RgManager has no memory of the replica, so the load resets to
        the model's initial value."""
        node_a = make_rgmanager(naming, node_id=0)
        node_b = make_rgmanager(naming, node_id=1)
        self.install_gp_model(node_a)
        self.install_gp_model(node_b)
        db = make_db("GP_Gen5_4")
        replica = make_replica()
        for now in (300, 600, 900, 1200):
            grown = node_a.get_metric_loads(replica, db, now, 300)
        replica.node_id = 1
        reset = node_b.get_metric_loads(replica, db, 1500, 300)
        assert reset[DISK_GB] < grown[DISK_GB]
        # A fresh node has no history: the report restarts from the
        # model's initial value (a fresh tempdb).
        assert reset[DISK_GB] == pytest.approx(db.initial_local_disk_gb())

    def test_forget_replica_resets_memory(self, naming):
        rgmanager = make_rgmanager(naming)
        self.install_gp_model(rgmanager)
        db = make_db("GP_Gen5_4")
        replica = make_replica()
        rgmanager.get_metric_loads(replica, db, 300, 300)
        rgmanager.forget_replica(replica.replica_id)
        loads = rgmanager.get_metric_loads(replica, db, 600, 300)
        assert loads[DISK_GB] == pytest.approx(db.initial_local_disk_gb())


class TestModelInstall:
    def test_install_tracks_version(self, naming):
        rgmanager = make_rgmanager(naming)
        rgmanager.install_models(TotoModelSet([]), 7)
        assert rgmanager.model_version == 7

    def test_uninstall(self, naming):
        rgmanager = make_rgmanager(naming)
        rgmanager.install_models(
            TotoModelSet([make_flat_disk_model(Edition.PREMIUM_BC,
                                               mu=50.0)]), 1)
        rgmanager.install_models(None, 0)
        replica = make_replica(disk=42.0)
        loads = rgmanager.get_metric_loads(replica, make_db(), 300, 300)
        assert loads[DISK_GB] == 42.0
