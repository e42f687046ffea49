"""Simulation-kernel microbenchmark: raw event throughput.

Measures the event layer in isolation — schedule / calendar insert /
fire / cancel — with trivial callbacks, so the number tracks the
kernel's own overhead rather than model math. Real runs fire few
events: a paper-steady run (14 nodes, 1.5 days) fires about 2.9k and
bootstrap-320 about 1.9k, and the kernel is under 1% of either. The
number recorded in ``BENCH_perf.json`` is a regression floor for the
kernel, not a measure of end-to-end speed.

The workload mixes the three behaviours real components exhibit:
periodic self-rescheduling chains (replica report sweeps, model
refreshes), one-shot events (creates/drops), and cancelled timers
(stopped processes, maintenance ends), whose debris the calendar
drops when their instant fires.
"""

import time

from repro.simkernel import SimulationKernel

#: Independent periodic chains (think: per-node periodic daemons).
CHAINS = 50
#: One-shot events scheduled per chain tick, a third of them cancelled.
BURST = 6


def pump_kernel(target_events: int) -> dict:
    """Run the synthetic event mix until ``target_events`` have fired."""
    kernel = SimulationKernel()
    fired = [0]

    def make_chain(period, offset):
        def tick():
            fired[0] += 1
            kernel.schedule_oneshot_after(period, tick, label="chain")
            cancelled = None
            for burst in range(BURST):
                if burst % 3 == 0:
                    # Cancellation needs a handle: full schedule path.
                    cancelled = kernel.schedule_after(
                        burst + 1,
                        lambda: fired.__setitem__(0, fired[0] + 1),
                        label="one-shot")
                else:
                    kernel.schedule_oneshot_after(
                        burst + 1,
                        lambda: fired.__setitem__(0, fired[0] + 1),
                        label="one-shot")
            if cancelled is not None:
                cancelled.cancel()
        return tick

    for chain in range(CHAINS):
        kernel.schedule(chain + 1, make_chain(period=60 + chain, offset=chain),
                        label="chain-start")

    start = time.perf_counter()
    horizon = 0
    while kernel.events_executed < target_events:
        horizon += 3_600
        kernel.run_until(horizon)
    elapsed = time.perf_counter() - start
    return {
        "events": kernel.events_executed,
        "seconds": elapsed,
        "events_per_sec": kernel.events_executed / elapsed,
    }


def test_perf_kernel_event_throughput(benchmark):
    stats = benchmark.pedantic(pump_kernel, args=(200_000,),
                               rounds=3, iterations=1)
    assert stats["events"] >= 200_000
    # Sanity floor, far under any real machine: the guard is the
    # recorded trajectory, not this assert.
    assert stats["events_per_sec"] > 10_000
    benchmark.extra_info["events_per_sec"] = round(stats["events_per_sec"])


def test_perf_kernel_cancellation_debris_bounded():
    """Cancelled timers leave the calendar once their instant passes."""
    kernel = SimulationKernel()
    for index in range(500):
        event = kernel.schedule(1_000_000 + index, lambda: None,
                                label="doomed")
        event.cancel()
    assert kernel.pending_events == 0
    # The debris stays buried until its bucket fires, then goes with it.
    kernel.run_until(1_000_000 + 250)
    assert len(kernel._buckets) == len(kernel._times) == 250
    kernel.run_until(1_000_000 + 500)
    assert kernel._buckets == {} and kernel._times == []
    assert kernel.events_executed == 0
