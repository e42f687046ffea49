"""Fan independent benchmark scenarios out over a process pool.

Design contract (what makes parallel sweeps safe to use anywhere the
serial loop was used):

* **Picklable specs** — workers receive the declarative
  :class:`~repro.core.scenario.BenchmarkScenario` itself (frozen
  dataclasses all the way down), never live simulation objects.
  Picklability is probed up front; an unpicklable scenario degrades the
  whole sweep to the serial path instead of failing.
* **Model documents ship once per worker** — the trained
  ``model_document`` dominates a pickled scenario's size and is shared
  by every density variant in a sweep. The pool's *initializer*
  delivers each distinct document (deduplicated by content fingerprint)
  to every worker exactly once; per-task payloads carry the stripped
  scenario plus the fingerprint, and the worker re-attaches its cached
  document before running. N scenarios over one document pickle the
  document ``workers`` times, not ``N`` times.
* **Chunked dispatch** — scenarios are submitted as strided chunks
  (several per worker, so uneven runtimes still balance) instead of one
  future each, amortizing submit/result IPC over the chunk.
* **Warm pool reuse** — the executor keeps its process pool alive
  across :meth:`SweepExecutor.run` calls and reuses it while the worker
  count and document set are unchanged, so consecutive sweep batches
  skip interpreter spawn and document delivery entirely. Call
  :meth:`shutdown` (or drop the executor) to release the workers.
* **Deterministic results** — every run seeds its own
  :class:`~repro.rng.RngRegistry` from ``scenario.seed`` inside the
  worker process, exactly as :class:`~repro.core.runner.BenchmarkRunner`
  does serially, so no RNG state crosses process boundaries. Results
  are keyed by scenario position, never by completion order: the
  returned list is index-aligned with the input and byte-identical to
  what the serial loop produces.
* **Graceful serial fallback** — ``max_workers=1``, a single-scenario
  sweep, pickling failures, and pool startup failures (sandboxes
  without working semaphores, missing ``fork``/``spawn`` support) all
  fall back to in-process execution; a broken pool mid-sweep reruns the
  missing scenarios serially. An exception raised by scenario or
  reducer code is not a fallback: it reaches the caller once, exactly
  as from the serial loop, and the pool stays warm.
* **Progress callbacks** — an optional callback observes completions
  (in completion order, the one place ordering is nondeterministic) so
  CLIs can narrate long sweeps.
* **Observability exports cross intact** — a scenario carrying an
  :class:`~repro.obs.config.ObsConfig` produces its rendered trace,
  metric, and profile artifacts as *strings* inside
  ``BenchmarkResult.obs``, so pooled workers ship them through the
  pickle boundary byte-identical to a serial run; files only ever
  reach disk in the parent (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, FrozenSet, List, Optional, \
    Sequence, Tuple

from repro.core.runner import BenchmarkResult, run_scenario
from repro.core.scenario import BenchmarkScenario


@dataclass(frozen=True)
class SweepProgress:
    """One completed run inside a sweep."""

    completed: int
    total: int
    scenario_name: str
    parallel: bool


ProgressCallback = Callable[[SweepProgress], None]

#: Worker-side result reduction: applied to each
#: :class:`BenchmarkResult` *inside the worker process*, so only the
#: (typically small) reduced value crosses the pickle boundary. The
#: fleet layer uses this to keep a 100-cluster sweep's parent memory
#: bounded by per-cluster summaries instead of full frame sets. Must be
#: a module-level function (it is pickled to the workers); the serial
#: path applies the same reducer before its normalizing round trip, so
#: serial and pooled sweeps stay byte-identical.
Reducer = Callable[[BenchmarkResult], Any]

#: One task as shipped to a worker: (input index, scenario with its
#: model document stripped, fingerprint of that document or None).
_Task = Tuple[int, BenchmarkScenario, Optional[str]]

#: Per-worker-process cache of unpickled model documents, populated by
#: the pool initializer before any task runs.
_WORKER_DOCS: Dict[str, Any] = {}

#: Everything pickle raises for a payload that cannot cross a process
#: boundary.
_PICKLE_ERRORS = (pickle.PickleError, TypeError, AttributeError,
                  NotImplementedError, ValueError, EOFError, RecursionError)


class _TaskError(Exception):
    """Scenario or reducer code raised inside a worker.

    The wrapper tells the parent that the error belongs to the caller,
    not to the process boundary: an ``AttributeError`` from a reducer
    bug must not look like a payload that failed to pickle.
    """

    def __init__(self, error: Exception) -> None:
        super().__init__(error)
        self.error = error


def _init_worker(doc_blobs: Dict[str, bytes]) -> None:
    """Pool initializer: unpickle each distinct document exactly once."""
    _WORKER_DOCS.clear()
    for key, blob in doc_blobs.items():
        _WORKER_DOCS[key] = pickle.loads(blob)


def _execute(scenario: BenchmarkScenario) -> BenchmarkResult:
    """Worker entry point: one full benchmark run in this process."""
    return run_scenario(scenario)


def _execute_chunk(tasks: List[_Task],
                   reducer: Optional[Reducer] = None
                   ) -> List[Tuple[int, Any]]:
    """Worker entry point: run a chunk of document-stripped scenarios."""
    out: List[Tuple[int, Any]] = []
    for index, scenario, doc_key in tasks:
        if doc_key is not None:
            scenario = replace(scenario,
                               model_document=_WORKER_DOCS[doc_key])
        try:
            result = run_scenario(scenario)
            out.append((index,
                        reducer(result) if reducer is not None else result))
        except Exception as exc:
            raise _TaskError(exc) from exc
    return out


class SweepExecutor:
    """Runs a batch of independent scenarios, in parallel when possible.

    Args:
        max_workers: process count. ``None`` picks ``os.cpu_count()``
            (capped at the sweep size); ``1`` forces the serial path.
        progress: optional callback invoked after every completed run.
        reducer: optional module-level function applied to every
            :class:`BenchmarkResult` before it leaves the worker (or,
            serially, before the normalizing round trip). With a
            reducer installed :meth:`run` returns the reduced values.
    """

    #: Target chunks per worker: more than one so uneven scenario
    #: runtimes rebalance, few enough that submit/result IPC amortizes.
    CHUNKS_PER_WORKER = 4

    def __init__(self, max_workers: Optional[int] = None,
                 progress: Optional[ProgressCallback] = None,
                 reducer: Optional[Reducer] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.progress = progress
        self.reducer = reducer
        #: How the last sweep actually executed ("serial" | "parallel");
        #: lets tests and callers observe fallback decisions.
        self.last_mode: Optional[str] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._pool_doc_keys: FrozenSet[str] = frozenset()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        # getattr: __init__ may have raised before _pool existed.
        if getattr(self, "_pool", None) is not None:
            self.shutdown()

    # ------------------------------------------------------------------

    def run(self, scenarios: Sequence[BenchmarkScenario]) -> List[Any]:
        """Execute every scenario; results are index-aligned with input.

        Without a reducer each entry is a full
        :class:`BenchmarkResult`; with one, its reduced value.
        """
        scenarios = list(scenarios)
        if not scenarios:
            self.last_mode = "serial"
            return []
        workers = self._effective_workers(len(scenarios))
        if workers <= 1:
            return self._run_serial(scenarios)
        prepared = self._prepare(scenarios)
        if prepared is None or not self._reducer_picklable():
            return self._run_serial(scenarios)
        return self._run_parallel(scenarios, workers, *prepared)

    def shutdown(self) -> None:
        """Release the warm worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_workers = 0
            self._pool_doc_keys = frozenset()

    # ------------------------------------------------------------------

    def _effective_workers(self, sweep_size: int) -> int:
        workers = self.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        return min(workers, sweep_size)

    @staticmethod
    def _prepare(scenarios: Sequence[BenchmarkScenario]
                 ) -> Optional[Tuple[List[_Task], Dict[str, bytes]]]:
        """Strip and fingerprint model documents; probe picklability.

        Returns ``(tasks, doc_blobs)`` where each task carries the
        scenario without its document plus the document's content
        fingerprint, and ``doc_blobs`` maps fingerprint to the pickled
        document (deduplicated across the sweep). ``None`` means some
        payload cannot cross a process boundary — use the serial path.
        """
        tasks: List[_Task] = []
        doc_blobs: Dict[str, bytes] = {}
        blob_by_id: Dict[int, str] = {}
        try:
            for index, scenario in enumerate(scenarios):
                document = scenario.model_document
                if document is None:
                    key: Optional[str] = None
                    stripped = scenario
                else:
                    # Same object -> same blob without re-pickling.
                    key = blob_by_id.get(id(document))
                    if key is None:
                        blob = pickle.dumps(
                            document, protocol=pickle.HIGHEST_PROTOCOL)
                        key = hashlib.sha256(blob).hexdigest()
                        doc_blobs.setdefault(key, blob)
                        blob_by_id[id(document)] = key
                    stripped = replace(scenario, model_document=None)
                # Probe the stripped scenario's own round trip.
                pickle.loads(pickle.dumps(stripped,
                                          protocol=pickle.HIGHEST_PROTOCOL))
                tasks.append((index, stripped, key))
        except _PICKLE_ERRORS:
            # A probe failure means "use the serial path", never "crash".
            return None
        return tasks, doc_blobs

    def _reducer_picklable(self) -> bool:
        """Probe the reducer's round trip (it ships with every chunk)."""
        if self.reducer is None:
            return True
        try:
            pickle.loads(pickle.dumps(self.reducer,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        except _PICKLE_ERRORS:
            return False
        return True

    @staticmethod
    def _normalize(result: Any) -> Any:
        """Mirror the pool's pickle round trip on the serial path.

        Worker results cross a process boundary, which replaces any
        objects shared *across* results (interned strings, cached model
        documents) with per-result copies. A serial run must produce
        the same object graph, or pickling a result list would encode
        the sharing through pickle's memo and break the byte-identical
        serial/parallel contract. Unpicklable results (only possible on
        the serial-fallback path) are returned as-is.
        """
        try:
            return pickle.loads(pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL))
        except _PICKLE_ERRORS:
            return result

    def _report(self, completed: int, total: int, name: str,
                parallel: bool) -> None:
        if self.progress is not None:
            self.progress(SweepProgress(completed=completed, total=total,
                                        scenario_name=name,
                                        parallel=parallel))

    # ------------------------------------------------------------------

    def _run_serial(self, scenarios: List[BenchmarkScenario],
                    into: Optional[Dict[int, Any]] = None
                    ) -> List[Any]:
        """The plain loop; also finishes partially-parallel sweeps."""
        self.last_mode = "serial"
        results: Dict[int, Any] = into if into is not None else {}
        total = len(scenarios)
        reducer = self.reducer
        for index, scenario in enumerate(scenarios):
            if index in results:
                continue
            value: Any = _execute(scenario)
            if reducer is not None:
                value = reducer(value)
            results[index] = self._normalize(value)
            self._report(len(results), total, scenario.name, parallel=False)
        return [results[index] for index in range(total)]

    def _pool_for(self, workers: int, doc_blobs: Dict[str, bytes]
                  ) -> Optional[ProcessPoolExecutor]:
        """A warm pool whose workers hold exactly ``doc_blobs``.

        Reuses the previous sweep's pool when the worker count and the
        document set match; otherwise tears it down and starts fresh
        (worker caches would be stale). Returns ``None`` when this host
        cannot run a process pool at all.
        """
        keys = frozenset(doc_blobs)
        if (self._pool is not None and self._pool_workers == workers
                and self._pool_doc_keys == keys):
            return self._pool
        self.shutdown()
        try:
            pool = ProcessPoolExecutor(max_workers=workers,
                                       initializer=_init_worker,
                                       initargs=(doc_blobs,))
        except (OSError, ValueError, ImportError):
            # No usable multiprocessing primitives on this host.
            return None
        self._pool = pool
        self._pool_workers = workers
        self._pool_doc_keys = keys
        return pool

    def _run_parallel(self, scenarios: List[BenchmarkScenario],
                      workers: int, tasks: List[_Task],
                      doc_blobs: Dict[str, bytes]) -> List[Any]:
        total = len(scenarios)
        results: Dict[int, Any] = {}
        pool = self._pool_for(workers, doc_blobs)
        if pool is None:
            return self._run_serial(scenarios)
        n_chunks = min(total, workers * self.CHUNKS_PER_WORKER)
        chunks = [tasks[start::n_chunks] for start in range(n_chunks)]
        try:
            pending = {pool.submit(_execute_chunk, chunk, self.reducer)
                       for chunk in chunks}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    for index, result in future.result():
                        results[index] = result
                        self._report(len(results), total,
                                     scenarios[index].name, parallel=True)
        except _TaskError as failed:
            # Scenario or reducer code raised: propagate it once, as
            # serially. The pool is healthy, so it stays warm; only the
            # chunks that have not started yet are dropped.
            for future in pending:
                future.cancel()
            self.last_mode = "parallel"
            raise failed.error from failed.__cause__
        except _PICKLE_ERRORS + (BrokenProcessPool,):
            # Pool died or a result failed to cross the boundary:
            # whatever already finished is keyed by index; rerun the
            # rest in-process. The pool is no longer trustworthy.
            self.shutdown()
            return self._run_serial(scenarios, into=results)
        self.last_mode = "parallel"
        return [results[index] for index in range(total)]


def run_scenarios(scenarios: Sequence[BenchmarkScenario],
                  max_workers: Optional[int] = None,
                  progress: Optional[ProgressCallback] = None
                  ) -> List[BenchmarkResult]:
    """Convenience wrapper: one-shot sweep with optional parallelism."""
    executor = SweepExecutor(max_workers=max_workers, progress=progress)
    try:
        return executor.run(scenarios)
    finally:
        executor.shutdown()
