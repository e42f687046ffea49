"""Property-based tests (hypothesis) on core data structures."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.hourly_schedule import DayType, HourlyNormalSchedule
from repro.core.model_base import BinnedUniform
from repro.fabric.metrics import CPU_CORES, DISK_GB, NodeCapacities
from repro.fabric.node import Node
from repro.fabric.replica import Replica, ReplicaRole
from repro.simkernel import SimulationKernel
from repro.stats.descriptive import boxplot_stats
from repro.stats.dtw import dtw_distance

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=0.01, max_value=1e6,
                            allow_nan=False, allow_infinity=False)


class _PopRecorder:
    """Observer that records each event as the calendar hands it out."""

    def __init__(self, kernel_ref):
        self.kernel_ref = kernel_ref
        self.popped = []

    def event_scheduled(self, event, now):
        pass

    def event_begin(self, event):
        assert self.kernel_ref[0].now == event.time
        self.popped.append((event.time, event.sequence))

    def event_end(self, event):
        pass


class TestEventQueueProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=200))
    def test_pop_order_is_sorted(self, times):
        kernel_ref = []
        recorder = _PopRecorder(kernel_ref)
        kernel = SimulationKernel(observer=recorder)
        kernel_ref.append(kernel)
        for time in times:
            kernel.schedule(time, lambda: None)
        kernel.run_until(10_001)
        assert [time for time, _ in recorder.popped] == sorted(times)
        # Same-instant events leave in scheduling order.
        assert recorder.popped == sorted(recorder.popped)
        assert kernel.pending_events == 0

    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=100))
    def test_kernel_executes_all_events_in_order(self, times):
        kernel = SimulationKernel()
        seen = []
        for time in times:
            kernel.schedule(time, lambda t=time: seen.append(t))
        kernel.run_until(1001)
        assert seen == sorted(times)


class TestBoxplotProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=300))
    def test_ordering_invariants(self, data):
        stats = boxplot_stats(data)
        assert stats.minimum <= stats.q1 <= stats.median \
            <= stats.q3 <= stats.maximum
        epsilon = 1e-9 * max(abs(stats.minimum), abs(stats.maximum), 1.0)
        assert stats.minimum - epsilon <= stats.mean \
            <= stats.maximum + epsilon
        assert stats.whisker_low >= stats.minimum
        assert stats.whisker_high <= stats.maximum
        assert stats.count == len(data)

    @given(st.lists(finite_floats, min_size=1, max_size=300))
    def test_outliers_outside_whiskers(self, data):
        stats = boxplot_stats(data)
        for outlier in stats.outliers:
            assert (outlier < stats.whisker_low
                    or outlier > stats.whisker_high)

    @given(st.lists(finite_floats, min_size=1, max_size=100),
           finite_floats)
    def test_translation_equivariance(self, data, shift):
        base = boxplot_stats(data)
        shifted = boxplot_stats([x + shift for x in data])
        assert shifted.median == np.float64(base.median) + shift \
            or abs(shifted.median - (base.median + shift)) < 1e-6


class TestDtwProperties:
    series = st.lists(st.floats(min_value=-100, max_value=100,
                                allow_nan=False), min_size=1, max_size=40)

    @given(series)
    def test_self_distance_zero(self, a):
        assert dtw_distance(a, a) == 0.0

    @given(series, series)
    def test_nonnegative_and_symmetric(self, a, b):
        d_ab = dtw_distance(a, b)
        d_ba = dtw_distance(b, a)
        assert d_ab >= 0.0
        assert abs(d_ab - d_ba) < 1e-9

    @given(series)
    def test_repetition_is_free(self, a):
        doubled = [x for x in a for _ in range(2)]
        assert dtw_distance(a, doubled) == 0.0


class TestBinnedUniformProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=200),
           st.integers(min_value=1, max_value=8))
    def test_samples_within_support(self, data, n_bins):
        bins = BinnedUniform.from_sample(data, n_bins=n_bins)
        rng = np.random.default_rng(0)
        low, high = min(data), max(data)
        for _ in range(20):
            assert low - 1e-9 <= bins.sample(rng) <= high + 1e-9

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_bins_are_contiguous(self, data):
        bins = BinnedUniform.from_sample(data, n_bins=5)
        for (_, high_a), (low_b, _) in zip(bins.bins, bins.bins[1:]):
            assert abs(high_a - low_b) < 1e-9


class TestScheduleProperties:
    mus = st.lists(finite_floats, min_size=48, max_size=48)

    @given(mus, st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False))
    def test_scaling_is_linear(self, mus, factor):
        schedule = HourlyNormalSchedule()
        index = 0
        for daytype in DayType:
            for hour in range(24):
                schedule.set(daytype, hour, mus[index], abs(mus[index]))
                index += 1
        scaled = schedule.scaled(factor)
        for key, (mu, sigma) in schedule.cells.items():
            scaled_mu, scaled_sigma = scaled.cells[key]
            assert abs(scaled_mu - mu * factor) < 1e-6 * max(abs(mu), 1)
            assert scaled_sigma >= 0

    @given(st.integers(min_value=0, max_value=10_000_000),
           st.integers(min_value=0, max_value=6))
    def test_params_at_always_defined_for_complete(self, timestamp,
                                                   start_weekday):
        schedule = HourlyNormalSchedule.constant(1.0, 0.5)
        mu, sigma = schedule.params_at(timestamp, start_weekday)
        assert (mu, sigma) == (1.0, 0.5)


class TestNodeAccountingProperties:
    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=8,
                                        allow_nan=False),
                              st.floats(min_value=0, max_value=50,
                                        allow_nan=False)),
                    min_size=1, max_size=20),
           st.data())
    def test_incremental_equals_recomputed(self, replicas_spec, data):
        node = Node(0, NodeCapacities(cpu_cores=1e6, disk_gb=1e6,
                                      memory_gb=1e6))
        replicas = []
        for index, (cores, disk) in enumerate(replicas_spec):
            replica = Replica(replica_id=index, service_id=f"s{index}",
                              role=ReplicaRole.PRIMARY,
                              reported={CPU_CORES: cores, DISK_GB: disk})
            node.attach(replica)
            replicas.append(replica)
        # Random sequence of re-reports.
        for _ in range(10):
            replica = replicas[data.draw(
                st.integers(0, len(replicas) - 1))]
            new_disk = data.draw(st.floats(min_value=0, max_value=100,
                                           allow_nan=False))
            node.apply_report(replica, {DISK_GB: new_disk})
        incremental = {metric: node.load(metric)
                       for metric in (CPU_CORES, DISK_GB)}
        node.recompute_loads()
        for metric, value in incremental.items():
            assert abs(node.load(metric) - value) < 1e-6
