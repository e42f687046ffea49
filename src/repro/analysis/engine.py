"""AST lint engine: file discovery, suppression handling, rule driving.

The engine is deliberately boring: parse each module once, hand the
:class:`ModuleContext` to every applicable rule, collect
:class:`Violation` records, drop the suppressed ones, and sort the rest
so output is stable no matter the traversal order.  All repo-specific
knowledge lives in :mod:`repro.analysis.rules`.

Two whole-program passes ride on top of the per-module rules when a
:class:`~repro.analysis.graph.ProgramGraph` is in play (always, for
``lint_paths``): program-wide rules (the RNG substream registry checks
TL010..TL012) and the unused-suppression audit (TL013), which requires
knowing every violation before deciding a suppression did nothing.

Suppression syntax (checked per physical line of the flagged node)::

    value = lookup()        # totolint: disable=TL004
    other = lookup()        # totolint: disable=TL004,TL006
    noisy = lookup()        # totolint: disable=all

and per file, anywhere in the module (conventionally near the top)::

    # totolint: disable-file=TL007

Suppression comments are located with the tokenizer, so the syntax
shown inside a docstring (like the ones above) is not mistaken for a
live suppression.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.graph import ProgramGraph
    from repro.analysis.rules import Rule

#: One-line suppression: ``disable=TL001,TL002`` / ``disable=all``
#: after the marker (spelled out in the module docstring above — not
#: here, where the scanner would read it as live).
_SUPPRESS_LINE = re.compile(
    r"#\s*totolint:\s*disable=([A-Za-z0-9_,\s]+)")
#: Whole-file suppression: ``disable-file=TL007`` anywhere.
_SUPPRESS_FILE = re.compile(
    r"#\s*totolint:\s*disable-file=([A-Za-z0-9_,\s]+)")

#: The unused-suppression audit code (implemented here, not in rules).
AUDIT_RULE = "TL013"


class LintEngineError(Exception):
    """Internal engine failure (unreadable path, unparseable module).

    The CLI maps this (and any other unexpected exception) to exit
    code ``2`` so violations (exit ``1``) stay distinguishable from
    tooling breakage.
    """


def read_source(path: Path) -> str:
    """Read one target file; unreadable/undecodable input is exit-2.

    Both failure modes are mapped to :class:`LintEngineError` so the
    CLI reports a one-line diagnostic instead of a traceback: a file
    the tool cannot open (permissions, vanished mid-run) and bytes
    that are not UTF-8 (a committed binary, a latin-1 stray).
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise LintEngineError(f"cannot read {path}: {error}") from error
    except UnicodeDecodeError as error:
        raise LintEngineError(
            f"cannot decode {path} as UTF-8: {error}") from error


@dataclass(frozen=True, order=True)
class Violation:
    """One rule infraction at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    __slots__ = ("path", "module", "source", "tree", "program",
                 "_line_suppressions", "_file_suppressions",
                 "_used_line", "_used_file")

    def __init__(self, path: str, module: str, source: str) -> None:
        self.path = path
        self.module = module
        self.source = source
        #: Whole-program graph when linting a tree; None in
        #: single-module (``lint_source``) runs.
        self.program: Optional["ProgramGraph"] = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raise LintEngineError(
                f"cannot parse {path}: {error}") from error
        self._line_suppressions: Dict[int, Set[str]] = {}
        self._file_suppressions: Dict[str, int] = {}
        self._used_line: Set[Tuple[int, str]] = set()
        self._used_file: Set[str] = set()
        for lineno, comment in self._comments(source, path):
            match = _SUPPRESS_LINE.search(comment)
            if match:
                codes = {token.strip().upper()
                         for token in match.group(1).split(",")
                         if token.strip()}
                self._line_suppressions.setdefault(lineno, set()).update(codes)
            match = _SUPPRESS_FILE.search(comment)
            if match:
                for token in match.group(1).split(","):
                    if token.strip():
                        self._file_suppressions.setdefault(
                            token.strip().upper(), lineno)

    @staticmethod
    def _comments(source: str, path: str) -> List[Tuple[int, str]]:
        """(line, text) of every real comment token in the module."""
        found = []
        try:
            for token in tokenize.generate_tokens(
                    io.StringIO(source).readline):
                if token.type == tokenize.COMMENT:
                    found.append((token.start[0], token.string))
        except tokenize.TokenError as error:
            raise LintEngineError(
                f"cannot tokenize {path}: {error}") from error
        return found

    def in_package(self, *prefixes: str) -> bool:
        """True if the module lives under any of the dotted prefixes."""
        return any(self.module == prefix
                   or self.module.startswith(prefix + ".")
                   for prefix in prefixes)

    def suppressed(self, rule: str, line: int) -> bool:
        codes = self._line_suppressions.get(line, ())
        if rule in codes:
            self._used_line.add((line, rule))
            return True
        if "ALL" in codes:
            self._used_line.add((line, "ALL"))
            return True
        if rule in self._file_suppressions:
            self._used_file.add(rule)
            return True
        if "ALL" in self._file_suppressions:
            self._used_file.add("ALL")
            return True
        return False

    def unused_suppressions(self) -> List[Tuple[int, str]]:
        """(line, code) of every suppression that suppressed nothing."""
        unused = []
        for line, codes in self._line_suppressions.items():
            for code in codes:
                if (line, code) not in self._used_line:
                    unused.append((line, code))
        for code, line in self._file_suppressions.items():
            if code not in self._used_file:
                unused.append((line, f"file:{code}"))
        return sorted(unused)

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        return Violation(path=self.path,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0),
                         rule=rule, message=message)


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run, with stable ordering."""

    violations: Tuple[Violation, ...]
    files_checked: int
    #: Whether a program graph was built (``lint_paths``, never
    #: ``lint_source``); the statistics below are zero without one.
    program_built: bool = False
    registry_size: int = 0
    hot_functions: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        """``0`` clean, ``1`` violations (``2`` is raised, not returned)."""
        return 0 if self.clean else 1

    def counts(self) -> Dict[str, int]:
        """Violation count per rule code, sorted by code."""
        tally: Dict[str, int] = {}
        for violation in self.violations:
            tally[violation.rule] = tally.get(violation.rule, 0) + 1
        return dict(sorted(tally.items()))


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    Falls back to the stem for files outside a ``repro`` tree (fixtures,
    tests), which keeps package-scoped rules inert there unless the test
    passes an explicit virtual path.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = [path.stem]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def iter_python_files(root: Path) -> List[Path]:
    """Every ``.py`` file under ``root``, sorted for stable output."""
    if root.is_file():
        return [root]
    return sorted(path for path in root.rglob("*.py")
                  if "__pycache__" not in path.parts)


def lint_source(source: str, path: str = "src/repro/example.py",
                rules: Optional[Sequence["Rule"]] = None) -> LintReport:
    """Lint an in-memory module as if it lived at ``path``.

    The virtual ``path`` decides which package-scoped rules apply, so
    tests can exercise e.g. the simkernel-only rules on fixtures.  No
    program graph is built: the whole-program rules stay silent and
    TL003/TL004 fall back to their package-scope behaviour.
    """
    context = ModuleContext(path=path,
                            module=module_name_for(Path(path)),
                            source=source)
    active = _resolve(rules)
    per_module, _ = _split_rules(_checking_rules(active))
    violations = list(_check_module(context, per_module))
    violations.extend(_audit_suppressions(context, active))
    active_codes = {rule.code for rule in active}
    return LintReport(
        violations=tuple(sorted(v for v in violations
                                if v.rule in active_codes)),
        files_checked=1)


def lint_paths(paths: Sequence[Path],
               rules: Optional[Sequence["Rule"]] = None) -> LintReport:
    """Lint every Python file under each path (file or directory).

    A :class:`~repro.analysis.graph.ProgramGraph` over the same file
    set feeds the whole-program rules (TL010..TL012), scopes
    TL003/TL004 to the inferred hot set, and enables the TL013
    suppression audit.
    """
    from repro.analysis.graph import ProgramGraph

    active = _resolve(rules)
    per_module, program_rules = _split_rules(_checking_rules(active))
    contexts: List[ModuleContext] = []
    for root in paths:
        root = Path(root)
        if not root.exists():
            raise LintEngineError(f"no such file or directory: {root}")
        for file_path in iter_python_files(root):
            contexts.append(ModuleContext(
                path=str(file_path), module=module_name_for(file_path),
                source=read_source(file_path)))

    program = ProgramGraph.build(paths)
    for context in contexts:
        if program.covers(context.path):
            context.program = program

    violations: List[Violation] = []
    for context in contexts:
        violations.extend(_check_module(context, per_module))

    registry_size = 0
    if program_rules:
        by_path = {context.path: context for context in contexts}
        from repro.analysis.registry import SubstreamRegistry
        registry = SubstreamRegistry(program)
        registry_size = len(registry)
        for rule in program_rules:
            for violation in rule.check_program(registry):
                context = by_path.get(violation.path)
                if context is None \
                        or not context.suppressed(violation.rule,
                                                  violation.line):
                    violations.append(violation)

    for context in contexts:
        violations.extend(_audit_suppressions(context, active))

    active_codes = {rule.code for rule in active}
    return LintReport(
        violations=tuple(sorted(v for v in violations
                                if v.rule in active_codes)),
        files_checked=len(contexts),
        program_built=True,
        registry_size=registry_size,
        hot_functions=len(program.hot_functions()))


def _resolve(rules: Optional[Sequence["Rule"]]) -> Sequence["Rule"]:
    if rules is not None:
        return rules
    from repro.analysis.rules import get_rules
    return get_rules()


def _checking_rules(active: Sequence["Rule"]) -> Sequence["Rule"]:
    """The rules to actually *run* for a given selection.

    The TL013 audit can only decide a suppression is unused after every
    rule it might refer to has run, so selecting TL013 forces a
    full-catalogue check; the report is still filtered back down to the
    caller's selection afterwards.
    """
    if any(rule.code == AUDIT_RULE for rule in active):
        from repro.analysis.rules import all_rules
        return all_rules()
    return active


def _split_rules(rules: Sequence["Rule"]) \
        -> Tuple[List["Rule"], List["Rule"]]:
    """(per-module rules, program-wide rules)."""
    per_module = [rule for rule in rules
                  if not getattr(rule, "program_wide", False)]
    program = [rule for rule in rules
               if getattr(rule, "program_wide", False)]
    return per_module, program


def _check_module(context: ModuleContext,
                  rules: Sequence["Rule"]) -> Tuple[Violation, ...]:
    found: List[Violation] = []
    for rule in rules:
        if rule.code == AUDIT_RULE or not rule.applies_to(context):
            continue
        for violation in rule.check(context):
            if not context.suppressed(violation.rule, violation.line):
                found.append(violation)
    return tuple(sorted(found))


def _audit_suppressions(context: ModuleContext,
                        active: Sequence["Rule"]) -> List[Violation]:
    """TL013: every suppression must actually suppress something."""
    if not any(rule.code == AUDIT_RULE for rule in active):
        return []
    violations = []
    for line, code in context.unused_suppressions():
        if code.startswith("file:"):
            label = f"disable-file={code[len('file:'):]}"
        else:
            label = f"disable={code}"
        violation = Violation(
            path=context.path, line=line, col=0, rule=AUDIT_RULE,
            message=f"unused suppression `# totolint: {label}`: nothing "
                    "fires here any more; delete the stale comment")
        if not context.suppressed(AUDIT_RULE, line):
            violations.append(violation)
    return violations
