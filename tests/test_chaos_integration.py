"""Golden end-to-end chaos regression.

One small benchmark (6 hours, density 1.1) under the fixed "moderate"
fault profile, with every KPI and fault counter pinned to its exact
value. The determinism contract (docs/CHAOS.md) makes exact pinning
legitimate: the run is a pure function of the scenario, so *any*
change in these numbers means either an intentional semantic change
(re-pin the goldens and say so in the commit) or a determinism
regression (fix it).
"""

import builtins
import math
import random
import sys

import pytest

from repro.core.runner import run_scenario
from repro.experiments.scenarios import chaos_scenario, paper_scenario
from repro.fabric.node import fold_sum

pytestmark = pytest.mark.chaos

GOLDEN = dict(
    final_reserved_cores=946.0,
    final_disk_gb=40454.80724464085,
    core_utilization=0.853174603174603,
    disk_utilization=0.7054758517829389,
    creation_redirects=0,
    active_databases=219,
    failover_count=0,
    faults_injected=8,
    probes=278,
    retries=1390,
    degraded_intervals=1554,
    naming_unavailable_errors=278,
    naming_stale_reads=1112,
    rpc_reports_lost=1276,
    rpc_reports_delayed=0,
    creates_timed_out=0,
    drops_deferred=0,
    pm_ticks_stalled=0,
    node_crashes_applied=2,
    node_restores=2,
    injected_by_kind=(("control-plane", 1), ("naming-outage", 1),
                      ("naming-stale", 2), ("node-crash", 2),
                      ("rpc-loss", 2)),
    total_gross=1619.9709884679687,
    total_penalty=235.64289128604824,
    total_adjusted=1384.3280971819195,
    penalized_databases=34,
    events_executed=562,
)


@pytest.fixture(scope="module")
def golden_run():
    return run_scenario(chaos_scenario("moderate", density=1.1, days=0.25))


class TestGoldenChaosRun:
    def test_kpis_pinned_exactly(self, golden_run):
        kpis = golden_run.kpis
        assert kpis.final_reserved_cores == GOLDEN["final_reserved_cores"]
        assert kpis.final_disk_gb == GOLDEN["final_disk_gb"]
        assert kpis.core_utilization == GOLDEN["core_utilization"]
        assert kpis.disk_utilization == GOLDEN["disk_utilization"]
        assert kpis.creation_redirects == GOLDEN["creation_redirects"]
        assert kpis.active_databases == GOLDEN["active_databases"]
        assert kpis.failovers.count == GOLDEN["failover_count"]

    def test_fault_counters_pinned_exactly(self, golden_run):
        chaos = golden_run.kpis.chaos
        assert chaos is not None
        for counter in ("faults_injected", "probes", "retries",
                        "degraded_intervals", "naming_unavailable_errors",
                        "naming_stale_reads", "rpc_reports_lost",
                        "rpc_reports_delayed", "creates_timed_out",
                        "drops_deferred", "pm_ticks_stalled",
                        "node_crashes_applied", "node_restores",
                        "injected_by_kind"):
            assert getattr(chaos, counter) == GOLDEN[counter], counter

    def test_degraded_interval_arithmetic_holds(self, golden_run):
        """The roll-up counter is the sum of its per-path parts."""
        chaos = golden_run.kpis.chaos
        assert chaos.degraded_intervals == (
            chaos.naming_unavailable_errors + chaos.rpc_reports_lost
            + chaos.creates_timed_out + chaos.drops_deferred
            + chaos.pm_ticks_stalled)

    def test_revenue_pinned_exactly(self, golden_run):
        revenue = golden_run.revenue
        assert revenue.total_gross == GOLDEN["total_gross"]
        assert revenue.total_penalty == GOLDEN["total_penalty"]
        assert revenue.total_adjusted == GOLDEN["total_adjusted"]
        assert revenue.penalized_databases == GOLDEN["penalized_databases"]

    def test_telemetry_frames_carry_fault_counters(self, golden_run):
        last = golden_run.frames[-1]
        assert last.faults_injected_cumulative == GOLDEN["faults_injected"]
        assert last.chaos_retries_cumulative == GOLDEN["retries"]
        assert last.degraded_intervals_cumulative \
            == GOLDEN["degraded_intervals"]
        # Counters are cumulative, hence monotone across frames.
        injected = [frame.faults_injected_cumulative
                    for frame in golden_run.frames]
        assert injected == sorted(injected)

    def test_event_count_pinned_exactly(self, golden_run):
        assert golden_run.events_executed == GOLDEN["events_executed"]


class TestChaosAgainstBaseline:
    def test_same_scenario_without_chaos_reports_no_chaos_kpis(self):
        baseline = run_scenario(
            paper_scenario(density=1.1, days=0.25, maintenance=False))
        assert baseline.kpis.chaos is None
        assert baseline.frames[-1].faults_injected_cumulative == 0
        assert baseline.frames[-1].degraded_intervals_cumulative == 0


def compensated_sum(iterable, /, start=0):
    """A pure-Python port of CPython 3.12's ``sum()``.

    3.12 adds exact floats with Neumaier compensation, where 3.10 and
    3.11 (and :func:`~repro.fabric.node.fold_sum`) fold left. Exact
    ints and bools keep the integer fast path, an int met on the float
    path is added uncompensated, and any other type falls back to
    ``+`` for the rest of the iterable, as in CPython.
    """
    for kind, join in ((str, "''"), (bytes, "b''"), (bytearray, "b''")):
        if isinstance(start, kind):
            raise TypeError(f"sum() can't sum {kind.__name__} "
                            f"[use {join}.join(seq) instead]")
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int):
                total += float(item)
            else:
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def golden_view(result):
    """The pinned quantities of one run, keyed as :data:`GOLDEN`."""
    kpis, chaos, revenue = result.kpis, result.kpis.chaos, result.revenue
    view = dict(
        final_reserved_cores=kpis.final_reserved_cores,
        final_disk_gb=kpis.final_disk_gb,
        core_utilization=kpis.core_utilization,
        disk_utilization=kpis.disk_utilization,
        creation_redirects=kpis.creation_redirects,
        active_databases=kpis.active_databases,
        failover_count=kpis.failovers.count,
        total_gross=revenue.total_gross,
        total_penalty=revenue.total_penalty,
        total_adjusted=revenue.total_adjusted,
        penalized_databases=revenue.penalized_databases,
        events_executed=result.events_executed,
    )
    for counter in GOLDEN:
        if counter not in view:
            view[counter] = getattr(chaos, counter)
    return view


class TestPython312Sum:
    """The pins hold under Python 3.12's compensated ``sum()``.

    CI runs tier-1 on 3.10 and 3.12, and the pins were recorded on a
    left-folding ``sum()``. Patching the port over ``builtins.sum``
    answers the 3.12 question on any interpreter.
    """

    def test_port_self_check(self):
        assert compensated_sum([0.1] * 10) == 1.0
        assert fold_sum([0.1] * 10) == 0.9999999999999999
        assert compensated_sum([0.1] * 10, 0.5) == 1.5
        assert compensated_sum([1, 2, True]) == 4
        assert compensated_sum([[1], [2]], []) == [1, 2]
        assert math.copysign(1.0, compensated_sum([-0.0], -0.0)) == -1.0
        with pytest.raises(TypeError):
            compensated_sum(["a"], "")

    def test_port_matches_this_interpreter(self):
        """On 3.12+ the port is ``sum()``; before, ``sum()`` folds left."""
        rng = random.Random(312)
        for _ in range(200):
            values = [rng.choice((rng.uniform(-1e6, 1e6), rng.random(),
                                  rng.randint(-9, 9), -0.0))
                      for _ in range(rng.randint(0, 30))]
            expected = (compensated_sum(values) if sys.version_info >= (3, 12)
                        else fold_sum(values))
            assert builtins.sum(values) == expected, values

    def test_golden_run_pins_hold(self, monkeypatch):
        calls = []

        def counted(iterable, /, start=0):
            calls.append(1)
            return compensated_sum(iterable, start)

        monkeypatch.setattr(builtins, "sum", counted)
        result = run_scenario(chaos_scenario("moderate", density=1.1,
                                             days=0.25))
        monkeypatch.undo()
        assert calls, "the run never reached sum()"
        assert golden_view(result) == GOLDEN
