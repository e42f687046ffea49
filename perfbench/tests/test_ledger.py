"""The layer ledger: self times plus residual add up to the run wall."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import workloads
from perfbench.tracer import NO_PARENT, SpanTable

PLB = {"placements": 2, "placement_failures": 0, "moves": 1,
       "make_room_moves": 0, "stuck_violations": 0, "anneal_iterations": 9}


def _table(rows):
    """rows: (name, parent, start, end, run)."""
    names = []
    for name, *_ in rows:
        if name not in names:
            names.append(name)
    return SpanTable(
        names, np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        np.array([r[1] for r in rows]), np.array([r[2] for r in rows], float),
        np.array([r[3] for r in rows], float), np.array([r[4] for r in rows]))


def _one_run(run=1, offset=0.0):
    o = offset
    return [
        (workloads.INIT, NO_PARENT, o + 0.0, o + 1.0, run),
        (workloads.RUN, NO_PARENT, o + 1.0, o + 20.0, run),
        ("sqldb.control_plane.create_database", 1, o + 2.0, o + 10.0, run),
        ("fabric.cluster.create_service", 2, o + 3.0, o + 9.0, run),
        ("fabric.backend.find_placement", 3, o + 4.0, o + 8.0, run),
        (workloads.PUBLISH, 1, o + 11.0, o + 12.0, run),
        ("fabric.cluster.report_load", 1, o + 13.0, o + 13.5, run),
    ]


def test_self_times_and_residual_add_up_to_the_run_wall():
    table = _table(_one_run())
    out = workloads.ledger(table, [{"plb": PLB, "events": 5}])
    assert out["run_wall_s"] == 20.0
    assert out["sqldb.control_plane.create_database.self_s"] == 2.0
    assert out["fabric.cluster.create_service.self_s"] == 2.0
    assert out["fabric.backend.find_placement.self_s"] == 4.0
    layer_self = sum(value for key, value in out.items()
                     if key.endswith(".self_s"))
    assert layer_self + out["residual_s"] == pytest.approx(out["run_wall_s"])
    assert out["residual_s"] == pytest.approx(20.0 - 2 - 2 - 4 - 1 - 0.5)
    assert out["fabric.backend.placement_success_ratio"] == 2.0
    assert out["kernel.events_executed"] == 5.0


def test_every_declared_layer_metric_comes_from_the_ledger_or_run():
    from perfbench import report
    _, per_layer, _ = report.declared()
    table = _table(_one_run())
    produced = set(workloads.ledger(table, [{"plb": PLB, "events": 1}]))
    # The rest come from the untraced runs and set-up samples (run.py).
    from_run = {"setup.import_s", "setup.train_s", "setup.build_s",
                "parallel.makespan_s", "parallel.tail_s",
                "trace.overhead_ratio", "obs.export_overhead_ratio",
                "host.kernel_ms"}
    assert produced | from_run == set(per_layer)
    assert not produced & from_run


def test_runs_of_several_clusters_sum():
    table = _table(_one_run(run=1) + _one_run(run=2, offset=100.0))
    out = workloads.ledger(table, [{"plb": PLB, "events": 1}] * 2)
    assert out["run_wall_s"] == 40.0
    assert out["sqldb.control_plane.create_database.calls"] == 2.0
    assert out["fabric.backend.anneal_iterations"] == 18.0


def test_a_layer_span_outside_the_run_roots_is_rejected():
    rows = _one_run()
    rows.append(("fabric.cluster.fail_node", NO_PARENT, 30.0, 31.0, 1))
    with pytest.raises(RuntimeError, match="no root span"):
        workloads.ledger(_table(rows), [{"plb": PLB, "events": 1}])


def test_run_marks_split_bootstrap_from_simulation():
    marks = workloads.run_marks(_table(_one_run()))
    assert marks == {1: (1.0, 11.0, 20.0)}


def test_workload_table_matches_the_declaration():
    from perfbench import report
    _, _, spec = report.declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
