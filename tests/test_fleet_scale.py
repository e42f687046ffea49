"""Fleet-scale state: database pickles and the golden fleet digest.

Every replica's reported loads live in a plain dict and every database
is a plain dataclass; the golden pinned 100-cluster fleet smoke pins
the merged digest so any silent drift in the simulator, the reducer,
or the merge fails loudly.
"""

import dataclasses
import pickle

import pytest

from repro.fleet import ClusterTemplate, FleetTopology, fleet_digest, run_fleet
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.slo import get_slo


class TestDatabasePickleIdentity:
    """A pickled database comes back equal and independent."""

    def test_unpickled_instance_is_standalone_and_equal(self):
        original = DatabaseInstance(db_id="db-7", slo=get_slo("GP_Gen5_2"),
                                    created_at=3600, initial_data_gb=12.5)
        original.record_downtime(1.5)
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original
        clone.failover_count = 9
        clone.dropped_replica_ids.append(4)
        assert original.failover_count == 1
        assert original.dropped_replica_ids == []


@pytest.mark.fleet
class TestFleetGolden:
    """Golden pinned 100-cluster fleet smoke.

    The digest is a sha256 over the canonical JSON of all 100 cluster
    summaries — any drift in the simulator, the reducer, or the merge
    shows up here first.
    """

    GOLDEN_DIGEST = ("cb442bafd96614c58ce330cc05169da648e488b4"
                     "ed674fa7c2830b3c5eb97ae7")
    #: The same 100 clusters named ``fleet-bench-NNNN``: the fleet row
    #: of BENCH_perf.json (``benchmarks/emit_bench.py``).
    BENCH_DIGEST = ("ddd9d30b819067f71188a6331f3d1313"
                    "b4d6d032e1a135864b231c14dfad833f")

    def topology(self):
        return FleetTopology(cluster_count=100, prefix="golden",
                             template=ClusterTemplate(node_count=4,
                                                      days=0.05))

    def test_hundred_cluster_smoke_pin(self):
        result = run_fleet(self.topology(), max_workers=1)
        kpis = result.kpis
        assert kpis.clusters == 100
        assert kpis.nodes == 400
        assert kpis.databases_created == 6216
        assert kpis.active_databases == 6192
        assert kpis.reserved_cores == 27424.0
        assert kpis.creation_redirects == 0
        assert kpis.failover_count == 0
        assert kpis.penalized_databases == 1
        assert result.digest == self.GOLDEN_DIGEST
        # Names are the only difference from the benchmark's topology,
        # so renaming the summaries replays its digest without a rerun.
        bench = dataclasses.replace(self.topology(), prefix="bench")
        renamed = [dataclasses.replace(summary,
                                       name=bench.cluster_name(index))
                   for index, summary in enumerate(result.summaries)]
        assert fleet_digest(renamed) == self.BENCH_DIGEST
