"""Span tracing from outside the simulator.

A :class:`Tracer` replaces chosen public functions (class methods or
module functions) with thin wrappers that record one span per call:
the layer name, start, end, the enclosing span, and the run it belongs
to. Spans live in flat typed arrays, so a call costs a few appends and
two clock reads; nothing is written until the benchmark asks for it.

Pool workers forked from a traced parent inherit the wrappers. A
worker has no channel back to the parent, so at the end of every
simulated run it spills that run's spans to a file in ``spill_dir``;
the parent folds the files in with :meth:`Tracer.collect_spills`.

Self time is a span's duration minus the durations of its direct
children (:func:`self_times`), so the self times of a span's whole
subtree add up to its duration.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Parent index of a span that no traced call encloses (and run id of
#: a span recorded outside any run).
NO_PARENT = -1

#: Marks a patched attribute that the owner inherited rather than
#: defined, so :meth:`Tracer.uninstall` deletes it instead of setting it.
_INHERITED = object()


@dataclass
class SpanTable:
    """Spans as parallel numpy columns, one row per traced call."""

    names: List[str]
    name_id: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    run: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def __len__(self) -> int:
        return len(self.name_id)

    def rows(self, name: str) -> np.ndarray:
        """Row indices of the spans called ``name``."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name_id == self.names.index(name))


def self_times(table: SpanTable) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans recorded by one thread nest, so a span's children cover
    disjoint parts of it and their durations subtract exactly.
    """
    duration = table.duration
    has_parent = table.parent != NO_PARENT
    covered = np.bincount(table.parent[has_parent],
                          weights=duration[has_parent],
                          minlength=len(table))
    return duration - covered


def concat(tables: Sequence[SpanTable]) -> SpanTable:
    """One table from several, re-basing parent indices and name ids."""
    names: List[str] = []
    name_ids, parents, starts, ends, runs = [], [], [], [], []
    offset = 0
    for table in tables:
        remap = np.array([_intern(names, name) for name in table.names],
                         dtype=np.int32)
        name_ids.append(remap[table.name_id])
        parents.append(np.where(table.parent == NO_PARENT, NO_PARENT,
                                table.parent + offset))
        starts.append(table.start)
        ends.append(table.end)
        runs.append(table.run)
        offset += len(table)
    return SpanTable(names,
                     np.concatenate(name_ids).astype(np.int32),
                     np.concatenate(parents).astype(np.int64),
                     np.concatenate(starts).astype(np.float64),
                     np.concatenate(ends).astype(np.float64),
                     np.concatenate(runs).astype(np.int64))


def _intern(names: List[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def _save(path: Path, table: SpanTable, runs: List[Dict[str, Any]],
          compressed: bool = False) -> None:
    writer = np.savez_compressed if compressed else np.savez
    writer(path, name_id=table.name_id, parent=table.parent,
           start=table.start, end=table.end, run=table.run,
           meta=np.array(json.dumps({"names": table.names, "runs": runs})))


def load(path: Path) -> Tuple[SpanTable, List[Dict[str, Any]]]:
    """Read a span file written by :meth:`Tracer.save` or a worker spill."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        table = SpanTable(meta["names"], data["name_id"], data["parent"],
                          data["start"], data["end"], data["run"])
    return table, meta["runs"]


class Tracer:
    """Wraps public functions and records their spans in memory.

    Args:
        clock: monotonic clock shared by every process. The default,
            ``time.perf_counter``, reads CLOCK_MONOTONIC on Linux, so
            worker and parent timestamps compare directly.
        spill_dir: where forked workers write their runs' spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 spill_dir: Optional[Path] = None) -> None:
        self.clock = clock
        self.spill_dir = spill_dir
        self.names: List[str] = []
        self._name_id = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._run = array("q")
        self._stack: List[int] = [NO_PARENT]
        self._current_run = [NO_PARENT]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._owner_pid = os.getpid()
        self._buffer_pid = self._owner_pid
        self._spills = 0
        #: Spans folded in from worker spill files.
        self._collected: List[SpanTable] = []
        #: One dict per finished run: what :meth:`end_run` was given,
        #: plus the run id, pid and the process's peak RSS so far.
        self.runs: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             before: Optional[Callable[..., None]] = None,
             after: Optional[Callable[..., None]] = None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``before``/``after`` hooks receive the call's arguments and run
        just outside the span; the hot seams leave them unset.
        """
        spanned = self._spanned(getattr(owner, attr), name)
        if before is None and after is None:
            self._patch(owner, attr, spanned)
            return

        @functools.wraps(spanned)
        def hooked(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            try:
                return spanned(*args, **kwargs)
            finally:
                if after is not None:
                    after(*args, **kwargs)

        self._patch(owner, attr, hooked)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = vars(owner).get(attr, _INHERITED)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def _spanned(self, original: Callable[..., Any],
                 name: str) -> Callable[..., Any]:
        # Everything the wrapper touches is bound to a local up front:
        # it runs ~10^5-10^6 times per run, so each attribute lookup
        # saved shows in the traced run's overhead ratio.
        name_id = _intern(self.names, name)
        clock = self.clock
        stack = self._stack
        push, pop = stack.append, stack.pop
        current_run = self._current_run
        add_name = self._name_id.append
        add_parent = self._parent.append
        add_start = self._start.append
        add_end = self._end.append
        add_run = self._run.append
        ends = self._end

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(ends)
            add_name(name_id)
            add_parent(stack[-1])
            add_run(current_run[0])
            add_end(0.0)
            push(index)
            add_start(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()

        return traced

    # ------------------------------------------------------------------
    # Runs and worker processes
    # ------------------------------------------------------------------

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self._owner_pid

    def begin_run(self, run_id: int) -> None:
        """Label the spans that follow with ``run_id``.

        In a freshly forked worker this first drops the spans the
        worker inherited from its parent.
        """
        if os.getpid() != self._buffer_pid:
            self._buffer_pid = os.getpid()
            self.clear()
        self._current_run[0] = run_id

    def end_run(self, info: Dict[str, Any]) -> None:
        """Close the current run, keeping ``info`` about it in :attr:`runs`.

        A forked worker then spills the run's spans to ``spill_dir``.
        """
        info = dict(info, run=self._current_run[0], pid=os.getpid(),
                    maxrss_kb=resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss)
        self.runs.append(info)
        self._current_run[0] = NO_PARENT
        if self.spill_dir is not None and self.in_worker:
            self._spills += 1
            _save(self.spill_dir / f"spans-{os.getpid()}-{self._spills}.npz",
                  self.table(), self.runs)
            self.clear()

    def collect_spills(self) -> None:
        """Fold every worker spill file into this tracer, then delete it."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.npz")):
            table, runs = load(path)
            self._collected.append(table)
            self.runs.extend(runs)
            path.unlink()

    # ------------------------------------------------------------------
    # Reading and resetting the store
    # ------------------------------------------------------------------

    def table(self) -> SpanTable:
        """Every span recorded here or collected from workers."""
        own = SpanTable(list(self.names),
                        np.array(self._name_id, dtype=np.int32),
                        np.array(self._parent, dtype=np.int64),
                        np.array(self._start, dtype=np.float64),
                        np.array(self._end, dtype=np.float64),
                        np.array(self._run, dtype=np.int64))
        return concat([own] + self._collected)

    def clear(self) -> None:
        """Forget all spans and runs; the wrappers stay installed."""
        for column in (self._name_id, self._parent, self._start,
                       self._end, self._run):
            del column[:]
        del self._stack[1:]
        self._collected = []
        self.runs = []

    def save(self, path: Path) -> None:
        """Write every span and run record to ``path`` (numpy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        _save(path, self.table(), self.runs, compressed=True)
