"""The trace/metric record sink.

:class:`ListSink` receives plain-dict records and renders each to one
canonical JSON line (sorted keys, compact separators) at emit time, so
the final artifact is a deterministic function of the emitted record
sequence — the property the serial-vs-pooled byte-identity contract
rests on.
"""

from __future__ import annotations

import json
from typing import Dict, List

#: One trace or metric record; values must be JSON-serializable.
Record = Dict[str, object]


def render_record(record: Record) -> str:
    """Canonical single-line JSON encoding of one record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class ListSink:
    """Accumulates canonically-rendered JSONL lines in memory.

    In-memory accumulation (rather than streaming to a file handle) is
    what lets exports cross the :class:`~repro.parallel.executor.
    SweepExecutor` process boundary inside the pickled result: the
    parent process writes the files, workers never touch the disk.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, record: Record) -> None:
        self.lines.append(render_record(record))

    def render(self) -> str:
        """The accumulated artifact: one record per line."""
        return "\n".join(self.lines) + ("\n" if self.lines else "")
