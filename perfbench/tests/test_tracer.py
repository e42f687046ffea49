"""Self-time arithmetic, run labelling and worker spills of the tracer."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from perfbench.tracer import NO_PARENT, SpanTable, Tracer, concat, self_times


class FakeClock:
    """Advances by a scripted step on every read."""

    def __init__(self) -> None:
        self.now = 0.0
        self.steps: list = []

    def __call__(self) -> float:
        self.now += self.steps.pop(0) if self.steps else 1.0
        return self.now


class Backend:
    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def find_placement(self) -> None:
        self.clock.steps.append(3.0)  # the work inside find_placement


class Cluster:
    def __init__(self, backend: Backend) -> None:
        self.backend = backend

    def create_service(self) -> None:
        self.backend.clock.steps.append(2.0)  # before the child
        self.backend.find_placement()
        self.backend.clock.steps.append(5.0)  # after the child


class ControlPlane:
    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def create_database(self) -> None:
        self.cluster.backend.clock.steps.append(7.0)
        self.cluster.create_service()
        self.cluster.backend.clock.steps.append(11.0)


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.wrap(ControlPlane, "create_database",
                "sqldb.control_plane.create_database")
    tracer.wrap(Cluster, "create_service", "fabric.cluster.create_service")
    tracer.wrap(Backend, "find_placement", "fabric.backend.find_placement")
    yield tracer, ControlPlane(Cluster(Backend(clock)))
    tracer.uninstall()


def test_nested_self_times(traced):
    tracer, control_plane = traced
    control_plane.create_database()
    table = tracer.table()
    own = dict(zip((table.names[i] for i in table.name_id), self_times(table)))
    # Each span's self time is exactly the clock steps taken in its own
    # body: outer 7 + 11, middle 2 + 5, inner 3.
    assert own["sqldb.control_plane.create_database"] == 7 + 11
    assert own["fabric.cluster.create_service"] == 2 + 5
    assert own["fabric.backend.find_placement"] == 3
    root = table.rows("sqldb.control_plane.create_database")[0]
    assert self_times(table).sum() == pytest.approx(table.duration[root])


def test_parents_link_the_nesting(traced):
    tracer, control_plane = traced
    control_plane.create_database()
    table = tracer.table()
    outer, middle, inner = (table.rows(name)[0] for name in (
        "sqldb.control_plane.create_database",
        "fabric.cluster.create_service",
        "fabric.backend.find_placement"))
    assert table.parent[outer] == NO_PARENT
    assert table.parent[middle] == outer
    assert table.parent[inner] == middle


def test_siblings_both_subtract():
    table = SpanTable(["root", "a"], np.array([0, 1, 1], dtype=np.int32),
                      np.array([NO_PARENT, 0, 0]),
                      np.array([0.0, 1.0, 4.0]), np.array([10.0, 3.0, 8.0]),
                      np.array([7, 7, 7]))
    assert list(self_times(table)) == [4.0, 2.0, 4.0]


def test_concat_rebases_parents_and_names():
    first = SpanTable(["x"], np.array([0], dtype=np.int32),
                      np.array([NO_PARENT]), np.array([0.0]),
                      np.array([1.0]), np.array([1]))
    second = SpanTable(["y", "x"], np.array([0, 1], dtype=np.int32),
                       np.array([NO_PARENT, 0]), np.array([0.0, 0.5]),
                       np.array([2.0, 1.0]), np.array([2, 2]))
    merged = concat([first, second])
    assert merged.names == ["x", "y"]
    assert [merged.names[i] for i in merged.name_id] == ["x", "y", "x"]
    assert list(merged.parent) == [NO_PARENT, NO_PARENT, 1]
    assert list(self_times(merged)) == [1.0, 1.5, 0.5]


def test_uninstall_restores_own_and_inherited_attributes():
    class Base:
        def f(self) -> str:
            return "base"

    class Child(Base):
        def g(self) -> str:
            return "child"

    own, inherited = Child.g, Base.f
    tracer = Tracer()
    tracer.wrap(Child, "g", "g")
    tracer.wrap(Child, "f", "f")
    assert Child().f() == "base" and Child().g() == "child"
    assert len(tracer.table()) == 2
    tracer.uninstall()
    assert Child.g is own
    assert "f" not in vars(Child) and Child.f is inherited


def test_runs_label_spans_and_record_their_description():
    class Runner:
        def __init__(self, seed: int) -> None:
            self.seed = seed

        def run(self) -> None:
            pass

    tracer = Tracer()
    tracer.wrap(Runner, "__init__", "init",
                before=lambda runner, seed: tracer.begin_run(seed))
    tracer.wrap(Runner, "run", "run",
                after=lambda runner: tracer.end_run({"seed": runner.seed}))
    try:
        Runner(5).run()
        Runner(6).run()
    finally:
        tracer.uninstall()
    table = tracer.table()
    assert list(table.run) == [5, 5, 6, 6]
    assert [run["seed"] for run in tracer.runs] == [5, 6]
    assert [run["run"] for run in tracer.runs] == [5, 6]


class Job:
    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run(self) -> int:
        return self.step() + 1

    def step(self) -> int:
        return self.seed


def _child(seed: int) -> None:
    Job(seed).run()


def test_forked_workers_spill_their_runs(tmp_path):
    tracer = Tracer(spill_dir=tmp_path)
    tracer.wrap(Job, "__init__", "init",
                before=lambda job, seed: tracer.begin_run(seed))
    tracer.wrap(Job, "run", "run",
                after=lambda job: tracer.end_run({"days": 1.0}))
    tracer.wrap(Job, "step", "step")
    try:
        Job(1).run()  # a run in the parent stays in memory
        context = multiprocessing.get_context("fork")
        children = [context.Process(target=_child, args=(seed,))
                    for seed in (2, 3)]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=60)
            assert not child.is_alive() and child.exitcode == 0
        assert len(list(tmp_path.glob("spans-*.npz"))) == 2
        tracer.collect_spills()
    finally:
        tracer.uninstall()
    assert not list(tmp_path.glob("spans-*.npz"))
    table = tracer.table()
    assert sorted(run["run"] for run in tracer.runs) == [1, 2, 3]
    # Three spans per run, and no child re-reported the parent's run.
    assert sorted(table.run.tolist()) == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    for step in table.rows("step"):
        parent = table.parent[step]
        assert table.names[table.name_id[parent]] == "run"
        assert table.run[parent] == table.run[step]
