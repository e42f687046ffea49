"""Lightweight per-event-label profiling.

For every executed kernel event the profiler accumulates, keyed by the
event's label:

* **count** — how many events fired under the label;
* **virtual scheduling delay** — ``fire_time - schedule_time`` total,
  maximum, and a fixed-bound histogram (how far ahead the component
  schedules itself, in virtual seconds);
* **wall time** — total callback wall time, *only* when an external
  clock was injected (``ObsConfig.wall_clock``; ``repro.obs`` itself
  never reads a clock — rule TL014).

The JSON export (:meth:`EventProfiler.to_json`) contains only the
deterministic fields, so ``profile.json`` is byte-identical across
serial and pooled runs; wall times appear only in the human-readable
top-N report (:func:`format_profile_report`).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.simkernel.event import Event

#: Upper bounds (virtual seconds, inclusive) of the scheduling-delay
#: histogram buckets; the last bucket is unbounded.
DELAY_BUCKET_BOUNDS: Tuple[int, ...] = (0, 1, 60, 300, 900, 3600, 14400, 86400)


class _LabelStats:
    """Accumulators for one event label."""

    __slots__ = ("count", "vdelay_total", "vdelay_max", "buckets",
                 "wall_total")

    def __init__(self) -> None:
        self.count = 0
        self.vdelay_total = 0
        self.vdelay_max = 0
        self.buckets = [0] * (len(DELAY_BUCKET_BOUNDS) + 1)
        self.wall_total = 0.0


class EventProfiler:
    """Accumulates per-label statistics as the kernel executes events."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock
        self._stats: Dict[str, _LabelStats] = {}
        self._active: Optional[Tuple[_LabelStats, float]] = None

    # ------------------------------------------------------------------

    def begin(self, event: Event, scheduled_at: int) -> None:
        """Record an event about to execute."""
        label = event.label
        stats = self._stats.get(label)
        if stats is None:
            stats = _LabelStats()
            self._stats[label] = stats
        stats.count += 1
        delay = event.time - scheduled_at
        stats.vdelay_total += delay
        if delay > stats.vdelay_max:
            stats.vdelay_max = delay
        stats.buckets[self._bucket(delay)] += 1
        started = self._clock() if self._clock is not None else 0.0
        self._active = (stats, started)

    def end(self, event: Event) -> None:
        """Record the event's callback having returned."""
        if self._active is None:
            return
        stats, started = self._active
        self._active = None
        if self._clock is not None:
            stats.wall_total += self._clock() - started

    @staticmethod
    def _bucket(delay: int) -> int:
        for index, bound in enumerate(DELAY_BUCKET_BOUNDS):
            if delay <= bound:
                return index
        return len(DELAY_BUCKET_BOUNDS)

    # ------------------------------------------------------------------

    def labels(self) -> List[str]:
        """Every observed label, sorted."""
        return sorted(self._stats)

    def to_json(self) -> str:
        """Deterministic JSON export (no wall times, sorted labels)."""
        payload = {}
        for label in self.labels():
            stats = self._stats[label]
            buckets = {}
            for index, bound in enumerate(DELAY_BUCKET_BOUNDS):
                buckets[f"le_{bound}"] = stats.buckets[index]
            buckets["inf"] = stats.buckets[-1]
            payload[label] = {
                "count": stats.count,
                "vdelay_total_s": stats.vdelay_total,
                "vdelay_max_s": stats.vdelay_max,
                "vdelay_buckets": buckets,
            }
        return json.dumps({"schema": 1, "labels": payload},
                          sort_keys=True, indent=2) + "\n"

    def format_report(self, top: int = 15) -> str:
        """Human-readable top-N table, busiest labels first.

        Wall-time columns appear only when a clock was injected; the
        table is diagnostic output, never part of the export contract.
        """
        ranked = sorted(self._stats.items(),
                        key=lambda item: (-item[1].count, item[0]))[:top]
        with_wall = self._clock is not None
        header = f"{'label':<40} {'count':>8} {'avg delay':>10}"
        if with_wall:
            header += f" {'wall ms':>10} {'ms/event':>9}"
        lines = [header, "-" * len(header)]
        for label, stats in ranked:
            avg = stats.vdelay_total / stats.count if stats.count else 0.0
            row = f"{label[:40]:<40} {stats.count:>8} {avg:>9.1f}s"
            if with_wall:
                wall_ms = stats.wall_total * 1e3
                row += (f" {wall_ms:>10.2f}"
                        f" {wall_ms / stats.count:>9.3f}")
            lines.append(row)
        return "\n".join(lines)


def format_profile_report(profile_json: str, top: int = 15) -> str:
    """Render the top-N table from an exported ``profile.json`` blob.

    Used when only the deterministic export survived (e.g. a result
    that crossed a process boundary); contains no wall times.
    """
    payload = json.loads(profile_json)
    ranked = sorted(payload["labels"].items(),
                    key=lambda item: (-item[1]["count"], item[0]))[:top]
    header = f"{'label':<40} {'count':>8} {'avg delay':>10} {'max':>8}"
    lines = [header, "-" * len(header)]
    for label, stats in ranked:
        count = stats["count"]
        avg = stats["vdelay_total_s"] / count if count else 0.0
        lines.append(f"{label[:40]:<40} {count:>8} {avg:>9.1f}s "
                     f"{stats['vdelay_max_s']:>7}s")
    return "\n".join(lines)
