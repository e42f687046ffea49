"""Calendar-queue regression and order-equivalence tests.

The kernel's bucketed calendar replaced a binary heap; these tests pin
down the two properties the swap must preserve:

* the live count stays exact through interleaved cancellation and
  firing (cancelled debris stays in its bucket until that instant
  fires, so the count must skip it);
* events fire in exactly the old heap's ``(time, sequence)`` order,
  including handle-free one-shot entries, pre-run cancellations, and
  callbacks that schedule more work mid-run — checked against a plain
  ``heapq`` reference model under hypothesis-generated workloads, for
  the bare kernel and for one carrying an observer and DetSan.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.detsan import DetSanRecorder
from repro.simkernel import SimulationKernel


class TestPendingAccountingUnderCancelCompaction:
    """`pending_events` through cancel + fire cycles."""

    def test_queue_len_through_interleaved_cancel_and_compaction(self):
        kernel = SimulationKernel()
        fired = []
        handles = {}
        for i in range(300):
            handles[i] = kernel.schedule(
                i % 10, lambda i=i: fired.append(i), label=f"e{i}")
        live = set(handles)
        assert kernel.pending_events == 300

        for cycle in range(4):
            # Cancel a stride of the surviving handles; the debris
            # stays buried in its bucket, and the count must skip it.
            victims = sorted(live)[::3]
            for i in victims:
                handles[i].cancel()
                live.discard(i)
            assert kernel.pending_events == len(live)

            # Fire one instant: its live entries run in sequence order
            # and its debris leaves with the bucket.
            before = len(fired)
            kernel.run_until(cycle + 1)
            batch = fired[before:]
            assert batch == sorted(i for i in live if i % 10 == cycle)
            live.difference_update(batch)
            assert kernel.pending_events == len(live)
            assert min(kernel._buckets) == cycle + 1

        kernel.run_until(10)
        assert sorted(fired) == sorted(
            i for i in handles if not handles[i].cancelled)
        assert kernel.pending_events == 0
        assert kernel._buckets == {} and kernel._times == []

    def test_kernel_pending_events_with_oneshots_and_cancels(self):
        kernel = SimulationKernel()
        fired = []
        cancels = []
        for i in range(100):
            at = 10 + (i % 7)
            if i % 2:
                kernel.schedule_oneshot(at, lambda i=i: fired.append(i))
            else:
                handle = kernel.schedule(at, lambda i=i: fired.append(i))
                if i % 4 == 0:
                    cancels.append(handle)
        assert kernel.pending_events == 100
        for handle in cancels:
            handle.cancel()
        assert kernel.pending_events == 100 - len(cancels)
        kernel.run_until(13)  # partial drain
        kernel.run_until(100)
        assert kernel.pending_events == 0
        assert len(fired) == 100 - len(cancels)


# One workload item: (time, is_oneshot, cancel_before_run, child_delta).
# Oneshots have no handle, so cancellation only applies to events;
# child_delta schedules a follow-up from inside the callback (delta 0
# joins the currently firing batch).
OPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40),
              st.booleans(),
              st.booleans(),
              st.one_of(st.none(), st.integers(min_value=0, max_value=8))),
    min_size=1, max_size=60)


class Boom(Exception):
    """Raised by the one failing callback of a workload."""


class RecordingObserver:
    """A :class:`KernelObserver` that logs each hook with its sequence."""

    def __init__(self):
        self.log = []

    def event_scheduled(self, event, now):
        self.log.append(("scheduled", event.sequence))

    def event_begin(self, event):
        self.log.append(("begin", event.sequence))

    def event_end(self, event):
        self.log.append(("end", event.sequence))


def reference_firing_order(ops):
    """The old binary heap's firing order, simulated with heapq."""
    heap = []
    seq = 0
    for i, (time, _oneshot, _cancel, _child) in enumerate(ops):
        heapq.heappush(heap, (time, seq, ("op", i)))
        seq += 1
    fired = []
    while heap:
        time, _, tag = heapq.heappop(heap)
        if tag[0] == "op":
            i = tag[1]
            _, is_oneshot, cancelled, child = ops[i]
            if cancelled and not is_oneshot:
                continue
            fired.append(tag)
            if child is not None:
                heapq.heappush(heap, (time + child, seq, ("child", i)))
                seq += 1
        else:
            fired.append(tag)
    return fired


class TestCalendarQueueOrderEquivalence:
    @given(ops=OPS, split=st.integers(min_value=1, max_value=48))
    @settings(max_examples=120, deadline=None)
    def test_fires_in_exact_heap_order(self, ops, split):
        """Calendar queue == reference heap, to the event."""
        kernel = SimulationKernel()
        fired = []
        handles = {}

        def make_callback(i, child):
            def callback():
                fired.append(("op", i))
                if child is not None:
                    kernel.schedule_oneshot(
                        kernel.now + child,
                        lambda: fired.append(("child", i)))
            return callback

        for i, (time, is_oneshot, _cancel, child) in enumerate(ops):
            callback = make_callback(i, child)
            if is_oneshot:
                kernel.schedule_oneshot(time, callback, label=f"op{i}")
            else:
                handles[i] = kernel.schedule(time, callback, label=f"op{i}")
        for i, (_, is_oneshot, cancelled, _) in enumerate(ops):
            if cancelled and not is_oneshot:
                handles[i].cancel()

        # Split the run so the bucket cursor survives a pause.
        kernel.run_until(split)
        kernel.run_until(64)

        assert fired == reference_firing_order(ops)
        assert kernel.pending_events == 0

    @given(ops=OPS, split=st.integers(min_value=1, max_value=48),
           boom=st.integers(min_value=0, max_value=59))
    @settings(max_examples=120, deadline=None)
    def test_instrumented_kernel_fires_in_exact_heap_order(self, ops, split,
                                                           boom):
        """Observer + DetSan kernel == reference heap, through a raise.

        Op ``boom`` (if it fires) raises after scheduling its child; the
        unfired tail of its bucket must fire on the next ``run_until``.
        """
        observer = RecordingObserver()
        recorder = DetSanRecorder()
        kernel = SimulationKernel(detsan=recorder, observer=observer)
        boom %= len(ops)
        fired = []
        handles = {}

        def make_callback(i, child):
            def callback():
                fired.append(("op", i))
                if child is not None:
                    def fire_child():
                        fired.append(("child", i))

                    # Children are never cancelled, so each of the four
                    # schedule paths must give the same order.
                    if i % 4 == 0:
                        kernel.schedule(kernel.now + child, fire_child)
                    elif i % 4 == 1:
                        kernel.schedule_after(child, fire_child)
                    elif i % 4 == 2:
                        kernel.schedule_oneshot(kernel.now + child,
                                                fire_child)
                    else:
                        kernel.schedule_oneshot_after(child, fire_child)
                if i == boom:
                    raise Boom(i)
            return callback

        for i, (time, is_oneshot, _cancel, child) in enumerate(ops):
            callback = make_callback(i, child)
            if is_oneshot:
                kernel.schedule_oneshot(time, callback, label=f"op{i}")
            else:
                handles[i] = kernel.schedule(time, callback, label=f"op{i}")
        for i, (_, is_oneshot, cancelled, _) in enumerate(ops):
            if cancelled and not is_oneshot:
                handles[i].cancel()

        raised = 0
        for end in (split, 64):
            while True:
                try:
                    kernel.run_until(end)
                    break
                except Boom:
                    raised += 1
                    assert kernel.now == ops[boom][0]

        reference = reference_firing_order(ops)
        assert fired == reference
        assert raised == (1 if ("op", boom) in reference else 0)
        assert kernel.events_executed == len(reference) - raised
        assert kernel.pending_events == 0

        # One begin/end pair per fired Event: one-shots keep a full
        # Event on this kernel, so that is every fired entry.
        hooks = [entry for entry in observer.log if entry[0] != "scheduled"]
        assert [kind for kind, _ in hooks] == ["begin", "end"] * len(fired)
        assert all(begin[1] == end[1]
                   for begin, end in zip(hooks[::2], hooks[1::2]))

        # One ledger entry and one observer notice per schedule call.
        children = sum(1 for kind, i in reference
                       if kind == "op" and ops[i][3] is not None)
        ledger = [entry for entry in recorder.entries
                  if entry[0] == "event"]
        assert len(ledger) == len(ops) + children
        assert [label for _, _, label in ledger[:len(ops)]] == [
            f"op{i}" for i in range(len(ops))]
        scheduled = [seq for kind, seq in observer.log
                     if kind == "scheduled"]
        assert scheduled == list(range(len(ops) + children))
