"""The fleet merge determinism contract (docs/FLEET.md).

A fleet run's summaries, merged KPIs, frames, and digest must not
depend on *how* the sweep executed: serial, sharded across a warm
process pool, or degraded mid-flight by a broken pool, the outputs are
byte-identical because summaries are always re-ordered to spec order
(ascending cluster index) before the sequential-float merge.
"""

import dataclasses

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.analysis.detsan import verify_run
from repro.fleet import (
    ClusterTemplate,
    FleetFrame,
    FleetTopology,
    fleet_digest,
    merge_frames,
    merge_summaries,
    run_fleet,
    summarize_result,
)
from repro.parallel import SweepExecutor


def small_topology(prefix="merge", clusters=4):
    return FleetTopology(cluster_count=clusters, prefix=prefix,
                         template=ClusterTemplate(node_count=4, days=0.05))


class TestSerialShardedIdentity:
    def test_serial_vs_two_workers_byte_identical(self):
        topology = small_topology()
        serial = run_fleet(topology, max_workers=1)
        sharded = run_fleet(topology, max_workers=2)
        assert serial.mode == "serial"
        # A silent serial fallback would compare serial with serial.
        assert sharded.mode == "parallel"
        assert serial.summaries == sharded.summaries
        assert serial.frames == sharded.frames
        assert serial.kpis == sharded.kpis
        assert serial.digest == sharded.digest

    def test_summaries_come_back_in_spec_order(self):
        result = run_fleet(small_topology(), max_workers=2)
        names = [summary.name for summary in result.summaries]
        assert names == [result.topology.cluster_name(index)
                        for index in range(result.topology.cluster_count)]

    def test_density_cycle_survives_the_shard(self):
        topology = dataclasses.replace(small_topology(prefix="cycle"),
                                       densities=(1.0, 1.2))
        serial = run_fleet(topology, max_workers=1)
        sharded = run_fleet(topology, max_workers=2)
        assert sharded.mode == "parallel"
        assert serial.digest == sharded.digest
        assert [s.density for s in serial.summaries] == [1.0, 1.2, 1.0, 1.2]


class _BrokenPool:
    """A pool that dies on first use, like a worker OOM-kill."""

    def submit(self, fn, *args):
        raise BrokenProcessPool("worker died")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenPoolFallback:
    def test_broken_pool_finishes_serially_with_identical_digest(
            self, monkeypatch):
        topology = small_topology(prefix="broken")
        clean = run_fleet(topology, max_workers=1)

        executor = SweepExecutor(max_workers=2, reducer=summarize_result)
        monkeypatch.setattr(executor, "_pool_for",
                            lambda workers, blobs: _BrokenPool())
        try:
            summaries = tuple(executor.run(topology.scenarios()))
        finally:
            executor.shutdown()
        assert executor.last_mode == "serial"
        assert summaries == clean.summaries
        assert fleet_digest(summaries) == clean.digest


class TestMergeUnits:
    """Pure-merge behavior on hand-built summaries."""

    def make(self, name, seed, hour_values):
        from repro.fleet import ClusterSummary
        frames = tuple(
            FleetFrame(hour_index=hour, reserved_cores=cores,
                       disk_gb=cores * 10.0, active_databases=5,
                       redirects_cumulative=1, failover_count_cumulative=0)
            for hour, cores in hour_values)
        return ClusterSummary(
            name=name, seed=seed, density=1.0, node_count=4,
            final_reserved_cores=100.0, final_disk_gb=50.0,
            core_utilization=0.5, disk_utilization=0.25,
            creation_redirects=2, databases_created=10,
            active_databases=9, failover_count=1,
            failover_downtime_seconds=3.5, revenue_gross=20.0,
            revenue_penalty=1.0, revenue_adjusted=19.0,
            penalized_databases=1, faults_injected=0,
            events_executed=42, frames=frames)

    def test_merge_summaries_accumulates_in_order(self):
        kpis = merge_summaries([self.make("a", 1, [(0, 1.0)]),
                                self.make("b", 2, [(0, 2.0)])])
        assert kpis.clusters == 2
        assert kpis.nodes == 8
        assert kpis.databases_created == 20
        assert kpis.reserved_cores == 200.0
        assert kpis.revenue_adjusted == 38.0

    def test_merge_frames_sums_per_hour_and_sorts(self):
        merged = merge_frames([
            self.make("a", 1, [(1, 4.0), (0, 1.0)]),
            self.make("b", 2, [(0, 2.0), (2, 8.0)]),
        ])
        assert [frame.hour_index for frame in merged] == [0, 1, 2]
        assert [frame.reserved_cores for frame in merged] == [3.0, 4.0, 8.0]
        # Clusters missing an hour contribute nothing to it.
        assert merged[2].active_databases == 5

    def test_digest_is_order_sensitive(self):
        first = self.make("a", 1, [(0, 1.0)])
        second = self.make("b", 2, [(0, 2.0)])
        assert (fleet_digest([first, second])
                != fleet_digest([second, first]))

    def test_empty_fleet_merges_to_zeroes(self):
        kpis = merge_summaries([])
        assert kpis.clusters == 0
        assert kpis.reserved_cores == 0.0
        assert merge_frames([]) == []


@pytest.mark.fleet
class TestFleetDetSan:
    def test_fleet_cluster_scenario_is_detsan_clean(self):
        """A fleet-stamped scenario replays draw-for-draw identically."""
        scenario = small_topology(prefix="detsan", clusters=1).scenarios()[0]
        _, report = verify_run(scenario)
        assert report.ok, report.format()
        assert report.divergence is None
