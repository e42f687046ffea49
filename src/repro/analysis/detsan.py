"""DetSan: the runtime determinism sanitizer.

The static half of the determinism contract lives in
:mod:`repro.analysis.registry` — every RNG substream the program can
draw, proven by whole-program analysis.  DetSan is the runtime half: a
:class:`DetSanRecorder` threaded through :class:`~repro.rng.RngRegistry`
and :class:`~repro.simkernel.kernel.SimulationKernel` appends every
stream acquisition, every generator draw, and every event scheduling
into one ordered ledger.  A verified run
(:func:`verify_run`, ``repro run --detsan``) then checks two things:

1. **Static coverage** — every observed stream acquisition matches a
   registry entry by *site* (the ``stream()`` call location is a known
   :class:`~repro.analysis.graph.DrawSite`) and by *name* (the
   ``"/"``-joined runtime tokens satisfy the site's literal key or
   declared ``substream=`` pattern).  Randomness entering the program
   anywhere the analyzer cannot see is a finding.
2. **Replay identity** — the scenario is executed a second time in the
   same process and the two ledgers must match entry for entry.  The
   first mismatch is reported with its index, both entries, and the
   trailing context (:class:`Divergence`) — "the first mismatching
   draw", not just "fingerprints differ".

Recording is strictly opt-in: with no recorder attached, the only cost
in the hot paths is one ``is None`` test.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import FrameType
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.rng

#: Frames inside these files are the RNG plumbing itself, never the
#: draw site we want to attribute (e.g. ``fork`` delegating to
#: ``derive_seed``).
_PLUMBING_FILES = (repro.rng.__file__, __file__)

#: The directory that holds the ``repro`` package. Sites under it are
#: recorded relative to it (``repro/sqldb/rgmanager.py``), so a ledger
#: and its fingerprint do not depend on where the checkout lives.
_SOURCE_ROOT = os.path.dirname(os.path.dirname(repro.rng.__file__)) + os.sep

#: One ledger entry; the first element is the entry kind:
#: ``("stream", method, name, file, line)`` — a stream/seed acquisition,
#: ``("draw", name, method, file, line)``   — one generator method call,
#: ``("event", time, label)``               — one kernel scheduling.
LedgerEntry = Tuple[Any, ...]


def _caller_site() -> Tuple[str, int]:
    """(file, line) of the nearest caller outside the RNG plumbing.

    ``file`` is relative to :data:`_SOURCE_ROOT` when the caller lives
    under it; any other caller keeps its own path.
    """
    frame: Optional[FrameType] = sys._getframe(1)
    while frame is not None \
            and frame.f_code.co_filename in _PLUMBING_FILES:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - _getframe always has a caller
        return ("<unknown>", 0)
    file = frame.f_code.co_filename
    if file.startswith(_SOURCE_ROOT):
        file = file[len(_SOURCE_ROOT):]
    return (file, frame.f_lineno)


class RecordingGenerator:
    """Proxy around :class:`numpy.random.Generator` that logs draws.

    Attribute access delegates to the wrapped generator; callables are
    wrapped so each invocation appends a ``("draw", ...)`` ledger entry
    with the caller's source location before delegating.
    """

    __slots__ = ("_generator", "_stream_name", "_recorder")

    def __init__(self, generator: Any, stream_name: str,
                 recorder: "DetSanRecorder") -> None:
        self._generator = generator
        self._stream_name = stream_name
        self._recorder = recorder

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._generator, attr)
        if not callable(value):
            return value
        recorder = self._recorder
        stream_name = self._stream_name

        def recorded(*args: Any, **kwargs: Any) -> Any:
            file, line = _caller_site()
            recorder.entries.append(
                ("draw", stream_name, attr, file, line))
            return value(*args, **kwargs)

        return recorded


class DetSanRecorder:
    """The ordered ledger of one instrumented run.

    Implements the duck-typed recorder protocol :mod:`repro.rng` and
    the kernel expect: :meth:`acquire`, :meth:`acquire_seed`,
    :meth:`record_event`.
    """

    def __init__(self) -> None:
        self.entries: List[LedgerEntry] = []
        #: One proxy per spawn key so ``a is rng.stream(...)`` still
        #: holds under instrumentation.
        self._proxies: Dict[Tuple[int, ...], RecordingGenerator] = {}

    # -- protocol used by repro.rng --------------------------------------

    def acquire(self, key: Tuple[int, ...], method: str,
                name: Tuple[Any, ...], generator: Any) -> Any:
        """Record a ``stream()`` acquisition; return the draw proxy."""
        joined = "/".join(str(token) for token in name)
        file, line = _caller_site()
        self.entries.append(("stream", method, joined, file, line))
        proxy = self._proxies.get(key)
        if proxy is None:
            proxy = RecordingGenerator(generator, joined, self)
            self._proxies[key] = proxy
        return proxy

    def acquire_seed(self, method: str, name: Tuple[Any, ...],
                     seed: int) -> None:
        """Record a ``derive_seed()`` / ``fork()`` scalar derivation."""
        joined = "/".join(str(token) for token in name)
        file, line = _caller_site()
        self.entries.append(("stream", method, joined, file, line))

    # -- protocol used by the simulation kernel --------------------------

    def record_event(self, time: int, label: Any) -> None:
        """Record one scheduling (labels resolved eagerly)."""
        self.entries.append(
            ("event", time, label() if callable(label) else str(label)))

    # -- ledger digestion ------------------------------------------------

    def fingerprint(self) -> str:
        """Order-sensitive sha256 over the ledger, without line numbers.

        ``stream`` and ``draw`` entries are hashed without their last
        field, the source line, so an edit that only moves a draw site
        within its file leaves the fingerprint alone; ``event`` entries
        are hashed whole. :func:`compare_ledgers`, :meth:`acquisitions`
        and the registry site check still see the line.
        """
        digest = hashlib.sha256()
        for entry in self.entries:
            if entry[0] != "event":
                entry = entry[:-1]
            digest.update(repr(entry).encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    def acquisitions(self) -> List[Tuple[str, str, str, int]]:
        """Unique observed (method, name, file, line) acquisitions."""
        seen = []
        for entry in self.entries:
            if entry[0] == "stream":
                record = (entry[1], entry[2], entry[3], entry[4])
                if record not in seen:
                    seen.append(record)
        return seen


@dataclass(frozen=True)
class Divergence:
    """First point where two ledgers disagree."""

    index: int
    first: Optional[LedgerEntry]
    second: Optional[LedgerEntry]
    context: Tuple[LedgerEntry, ...]

    def format(self) -> str:
        lines = [f"first divergence at ledger entry {self.index}:",
                 f"  run 1: {self.first!r}",
                 f"  run 2: {self.second!r}"]
        if self.context:
            lines.append("  preceding entries (both runs agree):")
            lines.extend(f"    {entry!r}" for entry in self.context)
        return "\n".join(lines)


def compare_ledgers(first: Sequence[LedgerEntry],
                    second: Sequence[LedgerEntry],
                    context: int = 3) -> Optional[Divergence]:
    """The first mismatch between two ledgers, or ``None`` if identical."""
    for index in range(max(len(first), len(second))):
        a = first[index] if index < len(first) else None
        b = second[index] if index < len(second) else None
        if a != b:
            return Divergence(
                index=index, first=a, second=b,
                context=tuple(first[max(0, index - context):index]))
    return None


@dataclass
class DetSanReport:
    """Outcome of one verified (``--detsan``) run."""

    entries: int
    fingerprint: str
    replay_fingerprint: str
    registry_size: int
    acquisitions: int
    divergence: Optional[Divergence] = None
    #: Acquisitions whose call site is not a static DrawSite.
    unknown_sites: List[str] = field(default_factory=list)
    #: Acquisitions whose runtime name matches no registry pattern.
    unknown_names: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.divergence is None and not self.unknown_sites
                and not self.unknown_names)

    def format(self) -> str:
        lines = [
            f"detsan: {self.entries} ledger entries, "
            f"{self.acquisitions} stream acquisitions, "
            f"registry of {self.registry_size} static sites",
            f"detsan: run fingerprint    {self.fingerprint}",
            f"detsan: replay fingerprint {self.replay_fingerprint}",
        ]
        if self.divergence is not None:
            lines.append("detsan: REPLAY DIVERGENCE")
            lines.append(self.divergence.format())
        for site in self.unknown_sites:
            lines.append(f"detsan: UNKNOWN SITE {site} — acquisition at "
                         "a location the static registry does not know")
        for name in self.unknown_names:
            lines.append(f"detsan: UNKNOWN NAME {name} — no registry "
                         "pattern covers this substream")
        if self.ok:
            lines.append("detsan: OK — replay identical, every "
                         "acquisition statically known")
        return "\n".join(lines)


def verify_run(scenario: Any,
               registry_paths: Optional[Sequence[Path]] = None
               ) -> Tuple[Any, DetSanReport]:
    """Run ``scenario`` twice under DetSan and cross-check the ledgers.

    Returns ``(result, report)`` where ``result`` is the first run's
    :class:`~repro.core.runner.BenchmarkResult`.  The import of the
    runner is deferred so this module stays importable from the
    analysis layer without dragging in the whole simulator.
    """
    from repro.analysis.graph import ProgramGraph
    from repro.analysis.registry import SubstreamRegistry
    from repro.core.runner import run_scenario

    if registry_paths is None:
        registry_paths = [Path(repro.rng.__file__).resolve().parent]
    graph = ProgramGraph.build(registry_paths)
    registry = SubstreamRegistry(graph)

    first = DetSanRecorder()
    result = run_scenario(scenario, detsan=first)
    second = DetSanRecorder()
    run_scenario(scenario, detsan=second)

    report = DetSanReport(
        entries=len(first.entries),
        fingerprint=first.fingerprint(),
        replay_fingerprint=second.fingerprint(),
        registry_size=len(registry),
        acquisitions=len(first.acquisitions()),
        divergence=compare_ledgers(first.entries, second.entries),
    )
    for method, name, file, line in first.acquisitions():
        site = registry.match_site(file, line)
        if site is None:
            report.unknown_sites.append(f"{file}:{line} ({method} {name})")
            continue
        if name and registry.match_name(name) is None:
            report.unknown_names.append(f"{name} at {file}:{line}")
    return result, report
