"""Span-based event tracing.

Every executed kernel event becomes one *span* record; chaos gate
decisions inside an event become zero-duration *mark* records parented
to the enclosing span. Parent links run from schedule site to fire
site: when event A's callback schedules event B, B's span records A's
span as its parent, so the JSONL reconstructs the causal tree of a run
(the same shape Ditto-style microservice clones validate per-tier
traces against).

Determinism contract (enforced by totolint rule TL014 and DetSan): the
tracer draws from no RNG stream, reads no wall clock, and schedules no
events — span ids are a plain counter, timestamps are virtual. A traced
run is byte-identical to itself across serial and pooled execution.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.sink import ListSink
from repro.simkernel.event import Event

#: Version stamp of the trace record schema (the ``meta`` line).
TRACE_SCHEMA_VERSION = 1


class SpanTracer:
    """Builds the span stream for one run.

    Record shapes (one JSON object per line):

    * ``{"type": "meta", "schema": 1}`` — first line.
    * ``{"type": "span", "id": N, "parent": P|null, "label": L,
      "seq": S, "t_sched": T0, "t_fire": T1}`` — one executed event;
      emitted when the event's callback returns, so child marks appear
      *before* their parent span (Chrome-trace "complete event" order).
    * ``{"type": "mark", "id": N, "parent": P|null, "label": L,
      "t": T}`` — an instant annotation inside the current span.
    """

    def __init__(self) -> None:
        self._sink = ListSink()
        self._sink.emit({"type": "meta", "schema": TRACE_SCHEMA_VERSION})
        self._next_id = 1
        self._open: Optional[tuple] = None
        self.spans_emitted = 0
        self.marks_emitted = 0

    # ------------------------------------------------------------------

    @property
    def current_span(self) -> Optional[int]:
        """Id of the span currently executing, if any."""
        return self._open[0] if self._open is not None else None

    def begin(self, event: Event, scheduled_at: int,
              parent: Optional[int]) -> None:
        """Open the span for ``event`` (its callback is about to run)."""
        span_id = self._next_id
        self._next_id += 1
        self._open = (span_id, scheduled_at, parent)

    def end(self, event: Event) -> None:
        """Close the current span and emit its record."""
        if self._open is None:
            return
        span_id, scheduled_at, parent = self._open
        self._open = None
        self._sink.emit({
            "type": "span",
            "id": span_id,
            "parent": parent,
            "label": event.label,
            "seq": event.sequence,
            "t_sched": scheduled_at,
            "t_fire": event.time,
        })
        self.spans_emitted += 1

    def mark(self, label: str, now: int) -> None:
        """Emit an instant record parented to the executing span."""
        mark_id = self._next_id
        self._next_id += 1
        self._sink.emit({
            "type": "mark",
            "id": mark_id,
            "parent": self.current_span,
            "label": label,
            "t": now,
        })
        self.marks_emitted += 1

    # ------------------------------------------------------------------

    def render(self) -> str:
        """The JSONL artifact."""
        return self._sink.render()
