"""Whole-program module/call-graph builder for the analyzer.

Everything here is AST-only: no module under analysis is ever imported,
so the analyzer can run against broken, partial, or hostile trees.  One
:class:`ProgramGraph` covers every file handed to :meth:`ProgramGraph.build`
and answers the two whole-program questions the rules need:

* **RNG substream dataflow** — every ``.stream(...)`` /
  ``.derive_seed(...)`` / ``.fork(...)`` call site, with its token path
  (literal where auditable, declared via a ``# totolint: substream=``
  annotation where dynamic) — the input to
  :mod:`repro.analysis.registry`.
* **Hot-path inference** — which functions are reachable from simkernel
  event handlers (callbacks handed to ``schedule``/``schedule_after``/
  ``PeriodicProcess``/listener registrations) and from the chaos gates.
  Resolution is name-based and deliberately *over*-approximate: a
  function is treated as hot whenever any same-named function is
  reachable, because missing a hot function silences a determinism rule
  while a false positive merely widens its coverage.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import (
    LintEngineError,
    iter_python_files,
    module_name_for,
    read_source,
)

#: Methods that draw from (or derive seeds off) an RNG registry.
#: ``batched`` is the vectorized façade — it acquires the same named
#: substream as ``stream`` and is audited identically (TL010..TL012).
DRAW_METHODS = frozenset({"stream", "derive_seed", "fork", "batched"})

#: Call names whose function-valued arguments become hot roots:
#: ``schedule(time, callback)``, ``schedule_after(delay, callback)``,
#: ``PeriodicProcess(kernel, period, tick)``.
_CALLBACK_SLOTS: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "schedule": (1, ("callback",)),
    "schedule_after": (1, ("callback",)),
    "schedule_oneshot": (1, ("callback",)),
    "schedule_oneshot_after": (1, ("callback",)),
    "PeriodicProcess": (2, ("tick",)),
}

#: Listener-registration call names: every function-valued argument is
#: a callback invoked later from the event path.
_LISTENER_CALL = re.compile(r"^(add_\w*listener|attach\w*|register\w*)$")

#: The chaos gate methods; they are consulted from inside event
#: handlers, so any function they call is hot (see docs/CHAOS.md).
CHAOS_GATES = frozenset({
    "on_read", "on_write", "stale_view", "rpc_gate",
    "control_plane_gate", "population_gate",
})

#: ``# totolint: substream=<pattern>`` — declares the substream name
#: pattern for a draw site whose tokens are not all literal.
_SUBSTREAM_ANNOTATION = re.compile(
    r"#\s*totolint:\s*substream=([\w\-*?/\[\]!]+)")

#: ``# totolint: fleet-scale`` — marks the collection assigned on that
#: line as growing with the fleet (databases, replicas, telemetry
#: records); TL022 flags full rescans of it on per-event paths.
_FLEET_ANNOTATION = re.compile(r"#\s*totolint:\s*fleet-scale\b")

#: ``# totolint: merge-fn`` — registers the annotated function as a
#: sequential merge helper over spec-ordered operands.  Placed on (or
#: directly above) the ``def`` line.  TL034 checks the body is a
#: left fold.
_MERGE_ANNOTATION = re.compile(r"#\s*totolint:\s*merge-fn\b")


@dataclass(frozen=True)
class DrawSite:
    """One static RNG draw site (``registry.stream(...)`` and friends)."""

    path: str
    module: str
    line: int
    end_line: int
    col: int
    method: str
    #: One entry per argument: the literal string for auditable tokens,
    #: ``None`` for dynamic expressions.
    tokens: Tuple[Optional[str], ...]
    #: Dotted name of the enclosing function (``""`` at module level).
    func: str
    #: Declared ``substream=`` pattern for dynamic sites, or ``None``.
    annotation: Optional[str]

    @property
    def literal_key(self) -> Optional[Tuple[str, ...]]:
        """The ``"/"``-joinable token path when fully literal."""
        if any(token is None for token in self.tokens):
            return None
        return tuple(token for token in self.tokens if token is not None)

    @property
    def pattern(self) -> Optional[str]:
        """fnmatch pattern this site's runtime names must satisfy."""
        if self.annotation is not None:
            return self.annotation
        key = self.literal_key
        if key is None:
            return None
        return "/".join(key)

    def where(self) -> str:
        return f"{self.path}:{self.line} (in {self.func or '<module>'})"


@dataclass
class FunctionNode:
    """One function/method with its outgoing name-level edges."""

    qualname: str
    name: str
    start: int
    end: int
    #: Terminal names of everything this function calls.
    calls: Tuple[str, ...]
    #: Terminal names of functions referenced without being called
    #: (address-taken: passed around, stored, returned).
    refs: Tuple[str, ...]
    #: Terminal names handed to schedule()/PeriodicProcess()/listener
    #: registrations — these are hot *roots*.
    callbacks: Tuple[str, ...]


@dataclass
class ModuleExtract:
    """Everything the whole-program passes need from one module."""

    path: str
    module: str
    functions: List[FunctionNode] = field(default_factory=list)
    draws: List[DrawSite] = field(default_factory=list)
    #: Lines reading ``.root_seed`` (TL011 input).
    root_seed_reads: List[int] = field(default_factory=list)
    #: Names annotated ``# totolint: fleet-scale`` at assignment.
    fleet_scale: List[str] = field(default_factory=list)
    #: Qualnames annotated ``# totolint: merge-fn``.
    merge_fns: List[str] = field(default_factory=list)


def _terminal(node: ast.expr) -> Optional[str]:
    """Terminal name of a Name/Attribute reference, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Scope:
    """One lexical scope being extracted (module, class, or function)."""

    __slots__ = ("prefix", "calls", "refs", "callbacks")

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.calls: List[str] = []
        self.refs: List[str] = []
        self.callbacks: List[str] = []


class _ModuleVisitor(ast.NodeVisitor):
    """Single-pass extractor: functions, edges, draw sites."""

    def __init__(self, extract: ModuleExtract, source: str) -> None:
        self.extract = extract
        self.lines = source.splitlines()
        self._fleet_lines = {
            number for number, line in enumerate(self.lines, start=1)
            if _FLEET_ANNOTATION.search(line)}
        self._scopes: List[_Scope] = []

    # -- scope helpers --------------------------------------------------

    def _enter(self, name: str) -> None:
        outer = self._scopes[-1].prefix if self._scopes else ""
        prefix = outer + "." + name if outer else name
        self._scopes.append(_Scope(prefix))

    def _exit(self, node: ast.AST, is_function: bool) -> None:
        scope = self._scopes.pop()
        if is_function:
            self.extract.functions.append(FunctionNode(
                qualname=scope.prefix,
                name=scope.prefix.rsplit(".", 1)[-1],
                start=node.lineno,
                end=getattr(node, "end_lineno", node.lineno),
                calls=tuple(scope.calls), refs=tuple(scope.refs),
                callbacks=tuple(scope.callbacks)))
        elif self._scopes:
            # Class scope: fold leftovers into the enclosing scope so
            # class-body calls still produce edges.
            outer = self._scopes[-1]
            outer.calls.extend(scope.calls)
            outer.refs.extend(scope.refs)
            outer.callbacks.extend(scope.callbacks)

    def _record(self, kind: str, name: Optional[str]) -> None:
        if name is not None and self._scopes:
            getattr(self._scopes[-1], kind).append(name)

    # -- visitors -------------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        self._scopes.append(_Scope(""))
        self.generic_visit(node)
        self._scopes.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter(node.name)
        self.generic_visit(node)
        self._exit(node, is_function=False)

    def _visit_function(self, node: ast.AST, name: str) -> None:
        self._enter(name)
        self._note_merge_annotation(node)
        self.generic_visit(node)
        self._exit(node, is_function=True)

    def _note_merge_annotation(self, node: ast.AST) -> None:
        """Pick up a merge-fn marker on the signature.

        Accepted placements: the line directly above the first
        decorator (or the ``def`` when undecorated), any decorator
        line, and any line of the ``def`` signature itself.
        """
        start = node.lineno  # type: ignore[attr-defined]
        decorators = getattr(node, "decorator_list", None) or ()
        for decorator in decorators:
            start = min(start, decorator.lineno)
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else start
        qualname = self._scopes[-1].prefix
        for lineno in range(max(start - 1, 1), max(end, start) + 1):
            line = self.lines[lineno - 1]
            if _MERGE_ANNOTATION.search(line) \
                    and qualname not in self.extract.merge_fns:
                self.extract.merge_fns.append(qualname)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    # Lambdas stay part of the enclosing function's scope: their calls
    # become the encloser's edges, which is what a callback closure is.

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "root_seed" and isinstance(node.ctx, ast.Load):
            self.extract.root_seed_reads.append(node.lineno)
        self.generic_visit(node)

    def _note_fleet_scale(self, node: ast.stmt,
                          targets: Sequence[ast.expr]) -> None:
        end = getattr(node, "end_lineno", node.lineno)
        if any(line in self._fleet_lines
               for line in range(node.lineno, end + 1)):
            for target in targets:
                name = _terminal(target)
                if name is not None \
                        and name not in self.extract.fleet_scale:
                    self.extract.fleet_scale.append(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_fleet_scale(node, node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_fleet_scale(node, [node.target])
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_fleet_scale(node, [node.target])
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = _terminal(node.func)
        self._record("calls", callee)
        if callee in DRAW_METHODS and isinstance(node.func, ast.Attribute):
            self._record_draw(node, callee)
        if callee is not None:
            self._record_callbacks(node, callee)
        # Any bare function reference in an argument is address-taken.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._record("refs", _terminal(arg))
        self.generic_visit(node)

    # -- extraction details ---------------------------------------------

    def _record_callbacks(self, node: ast.Call, callee: str) -> None:
        slot = _CALLBACK_SLOTS.get(callee)
        candidates: List[ast.expr] = []
        if slot is not None:
            index, keywords = slot
            if len(node.args) > index:
                candidates.append(node.args[index])
            candidates.extend(kw.value for kw in node.keywords
                              if kw.arg in keywords)
        elif _LISTENER_CALL.match(callee):
            candidates.extend(node.args)
            candidates.extend(kw.value for kw in node.keywords)
        for candidate in candidates:
            if isinstance(candidate, ast.Lambda):
                for inner in ast.walk(candidate.body):
                    if isinstance(inner, ast.Call):
                        self._record("callbacks", _terminal(inner.func))
                    elif isinstance(inner, (ast.Name, ast.Attribute)):
                        self._record("callbacks", _terminal(inner))
            else:
                self._record("callbacks", _terminal(candidate))

    def _record_draw(self, node: ast.Call, method: str) -> None:
        tokens: List[Optional[str]] = []
        for arg in node.args:
            if isinstance(arg, ast.Constant) \
                    and isinstance(arg.value, (str, int)):
                tokens.append(str(arg.value))
            elif isinstance(arg, ast.Starred):
                tokens.append(None)
            else:
                tokens.append(None)
        end_line = getattr(node, "end_lineno", node.lineno)
        annotation = None
        for lineno in range(node.lineno, min(end_line + 1,
                                             len(self.lines) + 1)):
            match = _SUBSTREAM_ANNOTATION.search(self.lines[lineno - 1])
            if match:
                annotation = match.group(1)
                break
        self.extract.draws.append(DrawSite(
            path=self.extract.path, module=self.extract.module,
            line=node.lineno, end_line=end_line, col=node.col_offset,
            method=method, tokens=tuple(tokens),
            func=self._scopes[-1].prefix if self._scopes else "",
            annotation=annotation))


def extract_module(path: str, module: str, source: str) -> ModuleExtract:
    """AST-walk one module into its :class:`ModuleExtract`."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise LintEngineError(f"cannot parse {path}: {error}") from error
    extract = ModuleExtract(path=path, module=module)
    _ModuleVisitor(extract, source).visit(tree)
    return extract


class ProgramGraph:
    """The whole-program view: modules, call edges, hot set, draws."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleExtract] = {}
        #: path -> sorted (start, end, qualname) intervals of hot code.
        self._hot: Dict[str, List[Tuple[int, int, str]]] = {}
        self._hot_names: Set[str] = set()

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, paths: Sequence[Path]) -> "ProgramGraph":
        """Analyze every Python file under ``paths`` (files or dirs)."""
        graph = cls()
        for root in paths:
            root = Path(root)
            if not root.exists():
                raise LintEngineError(f"no such file or directory: {root}")
            for file_path in iter_python_files(root):
                key = str(file_path)
                graph.modules[key] = extract_module(
                    key, module_name_for(file_path), read_source(file_path))
        graph._infer_hot_paths()
        return graph

    @classmethod
    def from_source(cls, source: str,
                    path: str = "src/repro/example.py") -> "ProgramGraph":
        """Single-module graph (test fixtures)."""
        graph = cls()
        extract = extract_module(path, module_name_for(Path(path)), source)
        graph.modules[path] = extract
        graph._infer_hot_paths()
        return graph

    # -- hot-path inference ---------------------------------------------

    def _infer_hot_paths(self) -> None:
        """Mark every function reachable from event handlers/chaos gates.

        Roots: every callback handed to the kernel or a listener
        registration anywhere in the program, plus the chaos gate
        methods of modules under ``repro.chaos``. Edges: name-level
        calls *and* address-taken references (a function a hot function
        merely holds may still be invoked from the event path).
        """
        by_name: Dict[str, List[Tuple[str, FunctionNode]]] = {}
        for path, extract in self.modules.items():
            for function in extract.functions:
                by_name.setdefault(function.name, []).append(
                    (path, function))

        roots: Set[Tuple[str, str]] = set()
        for path, extract in self.modules.items():
            for function in extract.functions:
                for callback in function.callbacks:
                    for target_path, target in by_name.get(callback, ()):
                        roots.add((target_path, target.qualname))
            if extract.module == "repro.chaos" \
                    or extract.module.startswith("repro.chaos."):
                for function in extract.functions:
                    if function.name in CHAOS_GATES:
                        roots.add((path, function.qualname))

        index: Dict[Tuple[str, str], FunctionNode] = {
            (path, function.qualname): function
            for path, extract in self.modules.items()
            for function in extract.functions}

        seen: Set[Tuple[str, str]] = set()
        frontier = sorted(roots)
        while frontier:
            key = frontier.pop()
            if key in seen or key not in index:
                continue
            seen.add(key)
            function = index[key]
            for name in (*function.calls, *function.refs,
                         *function.callbacks):
                for target_path, target in by_name.get(name, ()):
                    candidate = (target_path, target.qualname)
                    if candidate not in seen:
                        frontier.append(candidate)

        for path, qualname in seen:
            function = index[(path, qualname)]
            self._hot.setdefault(path, []).append(
                (function.start, function.end, qualname))
            self._hot_names.add(
                f"{self.modules[path].module}:{qualname}")
        for intervals in self._hot.values():
            intervals.sort()

    # -- queries --------------------------------------------------------

    def is_hot(self, path: str, line: int) -> bool:
        """Whether ``line`` of ``path`` lies inside a hot function."""
        for start, end, _ in self._hot.get(path, ()):
            if start <= line <= end:
                return True
        return False

    def hot_functions(self) -> Tuple[str, ...]:
        """Sorted ``module:qualname`` labels of the inferred hot set."""
        return tuple(sorted(self._hot_names))

    def fleet_scale_names(self) -> Set[str]:
        """Every name annotated ``# totolint: fleet-scale``, program-wide."""
        return {name for extract in self.modules.values()
                for name in extract.fleet_scale}

    def merge_functions(self) -> Set[Tuple[str, str]]:
        """``(path, qualname)`` of every merge-fn.

        The merge registry: the functions annotated
        ``# totolint: merge-fn`` that TL034 checks for left-fold
        conformance.
        """
        return {(path, qualname)
                for path, extract in self.modules.items()
                for qualname in extract.merge_fns}

    def draw_sites(self) -> Tuple[DrawSite, ...]:
        """Every draw site in the program, in stable (path, line) order."""
        return tuple(sorted(
            (draw for extract in self.modules.values()
             for draw in extract.draws),
            key=lambda d: (d.path, d.line, d.col)))

    def covers(self, path: str) -> bool:
        return path in self.modules
