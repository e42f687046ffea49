"""Tests for noisy-neighbor CPU governance (§3.2 / §5.5)."""

import pytest

from repro import rng as rng_module
from repro.analysis.detsan import DetSanRecorder
from repro.core.cpu_model import CpuUsageModel
from repro.core.hourly_schedule import HourlyNormalSchedule
from repro.core.model_base import TotoModelSet
from repro.core.selectors import ALL_DATABASES
from repro.errors import SqlDbError
from repro.fabric.metrics import CPU_USED_CORES
from repro.rng import RngRegistry
from repro.simkernel import SimulationKernel
from repro.sqldb.governance import (
    CpuGovernor,
    GovernanceStats,
    summarize_governors,
)
from repro.sqldb.rgmanager import RgManager
from repro.units import HOUR
from tests.conftest import make_ring


class TestGovernor:
    def test_under_limit_untouched(self):
        governor = CpuGovernor(32.0, limit_fraction=0.9)
        usage = {1: 10.0, 2: 8.0}
        assert governor.govern(usage, 300) == usage
        assert governor.stats.throttle_events == 0

    def test_over_limit_throttled_to_limit(self):
        governor = CpuGovernor(32.0, limit_fraction=0.5)  # limit 16
        governed = governor.govern({1: 12.0, 2: 10.0}, 300)
        assert sum(governed.values()) == pytest.approx(16.0)
        assert governor.stats.over_limit_observations == 1

    def test_heaviest_throttled_first(self):
        governor = CpuGovernor(32.0, limit_fraction=0.5,
                               fair_share_cores=0.0)
        governed = governor.govern({1: 14.0, 2: 4.0}, 300)
        # 18 total, 2 excess: all taken from replica 1.
        assert governed[1] == pytest.approx(12.0)
        assert governed[2] == pytest.approx(4.0)

    def test_fair_share_floor(self):
        governor = CpuGovernor(4.0, limit_fraction=0.5,
                               fair_share_cores=1.0)
        governed = governor.govern({1: 3.0, 2: 3.0}, 300)
        # Limit 2 cannot be reached without breaking the 1-core floor;
        # both replicas keep at least their fair share.
        assert governed[1] >= 1.0 and governed[2] >= 1.0

    def test_throttled_core_seconds_accumulate(self):
        governor = CpuGovernor(8.0, limit_fraction=0.5,
                               fair_share_cores=0.0)
        governor.govern({1: 6.0}, 600)  # 2 cores cut for 600 s
        assert governor.stats.throttled_core_seconds == pytest.approx(
            1200.0)

    def test_invalid_parameters(self):
        with pytest.raises(SqlDbError):
            CpuGovernor(0.0)
        with pytest.raises(SqlDbError):
            CpuGovernor(8.0, limit_fraction=0.0)
        with pytest.raises(SqlDbError):
            CpuGovernor(8.0, fair_share_cores=-1.0)

    def test_over_limit_fraction(self):
        stats = GovernanceStats(observations=10, over_limit_observations=3)
        assert stats.over_limit_fraction == pytest.approx(0.3)
        assert GovernanceStats().over_limit_fraction == 0.0

    def test_monitor_mode_records_without_throttling(self):
        governor = CpuGovernor(8.0, limit_fraction=0.5, enforce=False)
        usage = {1: 6.0, 2: 3.0}
        assert governor.govern(usage, 300) == usage
        assert governor.stats.over_limit_observations == 1
        assert governor.stats.throttle_events == 0

    def test_summary(self):
        governors = [CpuGovernor(8.0, limit_fraction=0.5,
                                 fair_share_cores=0.0) for _ in range(2)]
        governors[0].govern({1: 6.0}, 300)
        governors[1].govern({1: 1.0}, 300)
        report = summarize_governors(governors)
        assert report.nodes == 2
        assert report.observations == 2
        assert report.throttle_events == 1
        assert "core-h" in report.row()


def install_cpu_model(ring, utilization, sigma):
    """Give every node a CPU-usage model and fill each node's
    reservations close to capacity with 8-core tenants."""
    cpu_model = CpuUsageModel(
        ALL_DATABASES, HourlyNormalSchedule.constant(utilization, sigma),
        secondary_fraction=1.0)
    for rgmanager in ring.rgmanagers:
        rgmanager.install_models(TotoModelSet([cpu_model]), 1)
    for _ in range(12):
        ring.control_plane.create_database("GP_Gen5_8", now=0,
                                           initial_data_gb=10.0)
    ring.start()


class TestRingIntegration:
    def make_governed_ring(self, kernel, rng_registry, utilization,
                           sigma=0.1):
        # Limit at 60% of 32 cores = 19.2; three 8-core tenants at full
        # utilization (24 cores) overrun it.
        ring = make_ring(kernel, rng_registry, node_count=4,
                         cpu_governance_limit=0.6)
        install_cpu_model(ring, utilization, sigma)
        return ring

    def test_hot_tenants_get_throttled(self, kernel, rng_registry):
        ring = self.make_governed_ring(kernel, rng_registry,
                                       utilization=1.0)
        kernel.run_until(2 * HOUR)
        report = summarize_governors(r.governor for r in ring.rgmanagers)
        assert report.raw_over_limit_fraction > 0.5
        assert report.throttle_events > 0
        for rgmanager in ring.rgmanagers:
            if rgmanager.cpu_usage_governed:
                assert sum(rgmanager.cpu_usage_governed.values()) <= \
                    rgmanager.governor.limit_cores + 1e-6

    def test_idle_tenants_never_throttled(self, kernel, rng_registry):
        ring = self.make_governed_ring(kernel, rng_registry,
                                       utilization=0.10)
        kernel.run_until(2 * HOUR)
        report = summarize_governors(r.governor for r in ring.rgmanagers)
        assert report.raw_over_limit_fraction == 0.0
        assert report.throttle_events == 0

    def test_governance_disabled_by_default(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        assert all(r.governor is None for r in ring.rgmanagers)

    def test_batched_cpu_draws_equal_the_scalar_loop(self, monkeypatch):
        """Each node's one array draw per sweep is the scalar sequence:
        the governor sees the same usage with batching on and off."""
        def governed_run():
            kernel = SimulationKernel()
            ring = self.make_governed_ring(kernel, RngRegistry(12345),
                                           utilization=0.8, sigma=0.15)
            kernel.run_until(2 * HOUR)
            return ([r.governor.stats for r in ring.rgmanagers],
                    [r.cpu_usage_governed for r in ring.rgmanagers])

        batched = governed_run()
        monkeypatch.setattr(rng_module, "SCALAR_SAMPLING", True)
        scalar = governed_run()
        assert batched == scalar
        assert sum(stats.throttle_events for stats in batched[0]) > 0


class TestUngovernedRing:
    def test_cpu_usage_is_never_sampled(self, kernel, monkeypatch):
        """Without a governor no sweep samples advisory CPU usage, even
        when a drawing (sigma > 0) CPU-usage model is installed."""
        calls = []
        original = RgManager.observe_cpu_usage_batch

        def counting(self, *args, **kwargs):
            calls.append(self.node_id)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(RgManager, "observe_cpu_usage_batch", counting)
        recorder = DetSanRecorder()
        ring = make_ring(kernel, RngRegistry(12345, recorder=recorder))
        install_cpu_model(ring, utilization=0.5, sigma=0.2)
        kernel.run_until(2 * HOUR)
        assert ring.report_sweeps > 0
        assert calls == []
        streams = [entry[2] for entry in recorder.entries
                   if entry[0] == "stream"]
        assert streams, "the recorder saw no stream acquisition at all"
        assert not [name for name in streams
                    if name.endswith(CPU_USED_CORES)]
        assert all(not r.cpu_usage_governed for r in ring.rgmanagers)
