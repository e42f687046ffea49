"""The repo-specific lint rules (TL001..TL014).

Each rule encodes one clause of the determinism/correctness contract
described in ``docs/STATIC_ANALYSIS.md``.  Most rules are small AST
visitors: they receive a parsed
:class:`~repro.analysis.engine.ModuleContext` and yield
:class:`~repro.analysis.engine.Violation` records; the engine handles
suppression, ordering and reporting.  The RNG substream rules
(TL010..TL012) are *program-wide*: they set ``program_wide`` and
implement :meth:`Rule.check_program` against the
:class:`~repro.analysis.registry.SubstreamRegistry` the engine builds
when linting a whole tree.

Adding a rule: subclass :class:`Rule`, set ``code``/``title``/
``rationale`` (and ``scopes`` if package-limited), implement
:meth:`Rule.check` (or :meth:`Rule.check_program`), and decorate with
:func:`register`.
"""

from __future__ import annotations

import ast
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.analysis.engine import LintEngineError, ModuleContext, Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.registry import SubstreamRegistry


class Rule:
    """Base class for one lint rule."""

    #: Stable identifier, e.g. ``"TL001"``; used in reports and
    #: ``# totolint: disable=`` comments.
    code: str = "TL000"
    #: One-line summary shown by ``repro-toto lint --list-rules``.
    title: str = ""
    #: Why the rule exists (rendered into docs/STATIC_ANALYSIS.md).
    rationale: str = ""
    #: Dotted module prefixes the rule is limited to; empty = everywhere.
    scopes: Tuple[str, ...] = ()
    #: Program-wide rules run once per lint over the substream registry
    #: (:meth:`check_program`) instead of once per module.
    program_wide: bool = False

    def applies_to(self, context: ModuleContext) -> bool:
        return not self.scopes or context.in_package(*self.scopes)

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    def check_program(self, registry: "SubstreamRegistry"
                      ) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, context: ModuleContext, node: ast.AST,
                  message: str) -> Violation:
        return context.violation(self.code, node, message)


class HotPathRule(Rule):
    """A rule whose scope is the *inferred* hot set when available.

    With a program graph in play the hand-maintained ``scopes`` package
    list is ignored: the rule applies to every module the graph covers,
    but only flags nodes inside functions reachable from simkernel
    event handlers or chaos gates.  Single-module runs (``lint_source``)
    fall back to the package scopes.
    """

    def applies_to(self, context: ModuleContext) -> bool:
        if context.program is not None:
            return True
        return super().applies_to(context)

    def in_scope(self, context: ModuleContext, node: ast.AST) -> bool:
        if context.program is None:
            return True
        return context.program.is_hot(context.path,
                                      getattr(node, "lineno", 1))


_REGISTRY: Dict[str, Rule] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of the rule to the registry."""
    rule = rule_class()
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_class


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, ordered by code."""
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def get_rules(codes: Optional[Iterable[str]] = None) -> Tuple[Rule, ...]:
    """Resolve a rule-code selection (``None`` = every rule)."""
    if codes is None:
        return all_rules()
    selected = []
    for code in codes:
        normalized = code.strip().upper()
        if normalized not in _REGISTRY:
            raise LintEngineError(
                f"unknown rule {code!r}; known: {', '.join(sorted(_REGISTRY))}")
        selected.append(_REGISTRY[normalized])
    return tuple(sorted(selected, key=lambda rule: rule.code))


# ---------------------------------------------------------------------------
# shared AST helpers


def _dotted(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to ``"a.b.c"`` (None if dynamic)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _public_functions(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Module-level defs plus methods of public classes.

    Functions nested inside other functions and everything under a
    ``_Private`` class are implementation detail and not yielded.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif (isinstance(node, ast.ClassDef)
              and not node.name.startswith("_")):
            yield from _public_functions(node.body)


# ---------------------------------------------------------------------------
# TL001 — wall-clock time


@register
class NoWallClock(Rule):
    code = "TL001"
    title = "no wall-clock time on simulation code paths"
    rationale = (
        "Simulated runs must depend only on the event clock; any "
        "`time.time()`/`datetime.now()` read makes results vary run to "
        "run and breaks serial/parallel byte-equality. Real timing "
        "belongs in `benchmarks/`, which is outside the linted tree.")

    #: (module-ish, attr) pairs: matches the last two components, so
    #: both ``time.monotonic()`` and ``datetime.datetime.now()`` hit.
    _BANNED_PAIRS = frozenset({
        ("time", "time"), ("time", "time_ns"),
        ("time", "monotonic"), ("time", "monotonic_ns"),
        ("time", "perf_counter"), ("time", "perf_counter_ns"),
        ("time", "process_time"), ("time", "process_time_ns"),
        ("datetime", "now"), ("datetime", "utcnow"),
        ("datetime", "today"), ("date", "today"),
    })
    #: Distinctive bare names (``from time import perf_counter``).
    _BANNED_NAMES = frozenset({
        "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
        "process_time", "process_time_ns", "time_ns", "utcnow",
    })

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is not None:
                parts = dotted.split(".")
                if (len(parts) >= 2
                        and (parts[-2], parts[-1]) in self._BANNED_PAIRS):
                    yield self.violation(
                        context, node,
                        f"wall-clock call `{dotted}()`: simulation code must "
                        "use the kernel clock (SimulationKernel.now)")
                elif len(parts) == 1 and parts[0] in self._BANNED_NAMES:
                    yield self.violation(
                        context, node,
                        f"wall-clock call `{dotted}()`: simulation code must "
                        "use the kernel clock (SimulationKernel.now)")


# ---------------------------------------------------------------------------
# TL002 — global RNG state


@register
class NoGlobalRng(Rule):
    code = "TL002"
    title = "no global random-number state"
    rationale = (
        "All randomness must thread through repro.rng streams (or an "
        "explicitly seeded Generator); module-level `random.*` / "
        "`np.random.*` draws share hidden state across components, so "
        "reordering any call perturbs every later one.")

    #: Constructors that create *local*, explicitly-seeded state.
    _ALLOWED = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "Random",
    })
    _MODULES = frozenset({"random", "np.random", "numpy.random"})

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            base = _dotted(node.func.value)
            if (base in self._MODULES
                    and node.func.attr not in self._ALLOWED):
                yield self.violation(
                    context, node,
                    f"global RNG call `{base}.{node.func.attr}()`: draw from "
                    "a repro.rng.RngRegistry stream instead")


# ---------------------------------------------------------------------------
# TL003 — unordered iteration on hot paths


@register
class NoUnorderedIteration(HotPathRule):
    code = "TL003"
    title = "no set iteration on simulation hot paths"
    rationale = (
        "Set iteration order depends on insertion history and element "
        "hashes (PYTHONHASHSEED for strings, id() for objects), so any "
        "loop over a set that schedules events or mutates state makes "
        "runs diverge. Sort first (`sorted(...)`) or keep an "
        "insertion-ordered dict/list. Sets remain fine for membership "
        "tests. dict/dict.values() iteration is allowed: insertion "
        "order is deterministic. Scope: the inferred hot set when the "
        "whole-program analyzer runs, the package list otherwise.")
    scopes = ("repro.simkernel", "repro.fabric", "repro.sqldb")

    _SET_METHODS = frozenset({"union", "intersection", "difference",
                              "symmetric_difference"})

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                reason = self._set_valued(candidate)
                if reason and self.in_scope(context, candidate):
                    yield self.violation(
                        context, candidate,
                        f"iteration over {reason} has nondeterministic "
                        "order on a hot path; wrap in sorted(...) or use "
                        "an insertion-ordered structure")

    def _set_valued(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("set", "frozenset")):
                return f"`{node.func.id}(...)`"
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._SET_METHODS):
                return f"a `.{node.func.attr}()` result"
        return None


# ---------------------------------------------------------------------------
# TL004 — identity as ordering key


@register
class NoIdentityKeys(HotPathRule):
    code = "TL004"
    title = "no id()/hash() values in program logic"
    rationale = (
        "`id()` is an interpreter address and `hash()` of strings is "
        "salted per process (PYTHONHASHSEED), so either one used as a "
        "sort key, dict key, or seed silently differs between the "
        "serial loop and pool workers. Use stable identifiers (database "
        "ids, node ids, sequence numbers) or repro.rng's FNV hashing. "
        "Scope: the inferred hot set when the whole-program analyzer "
        "runs, every module otherwise.")

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("id", "hash")
                    and self.in_scope(context, node)):
                yield self.violation(
                    context, node,
                    f"`{node.func.id}()` is process-specific: results "
                    "differ between serial runs and pool workers; use a "
                    "stable key instead")


# ---------------------------------------------------------------------------
# TL005 — mutable default arguments


@register
class NoMutableDefaults(Rule):
    code = "TL005"
    title = "no mutable default arguments"
    rationale = (
        "A mutable default is created once at import time and shared by "
        "every call — state leaks across scenario runs, which is both a "
        "correctness bug and a determinism hazard (results depend on "
        "call history). Default to None and construct inside the body.")

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray",
                                "defaultdict", "deque", "Counter",
                                "OrderedDict"})

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults
                if default is not None]
            for default in defaults:
                reason = self._mutable(default)
                if reason:
                    name = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        context, default,
                        f"mutable default {reason} in `{name}()` is shared "
                        "across calls; default to None and build inside")

    def _mutable(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.List):
            return "`[]`"
        if isinstance(node, ast.Dict):
            return "`{}`"
        if isinstance(node, ast.Set):
            return "set literal"
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return "comprehension"
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._MUTABLE_CALLS):
            return f"`{node.func.id}(...)`"
        return None


# ---------------------------------------------------------------------------
# TL006 — broad exception swallowing


@register
class NoBroadExcept(Rule):
    code = "TL006"
    title = "no bare/broad exception swallowing"
    rationale = (
        "`except Exception:` hides real faults — a typo in a callback "
        "becomes a silently skipped event and the run keeps going with "
        "wrong state. Catch the narrow repro.errors type you expect, or "
        "re-raise after adding context (a handler containing `raise` "
        "passes).")

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if any(isinstance(inner, ast.Raise)
                   for stmt in node.body
                   for inner in ast.walk(stmt)):
                continue
            label = "bare `except:`" if broad == "" else f"`except {broad}:`"
            yield self.violation(
                context, node,
                f"{label} swallows unexpected faults; catch a narrow "
                "exception type (see repro.errors) or re-raise")

    def _broad_name(self, node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return ""
        names = node.elts if isinstance(node, ast.Tuple) else [node]
        for name in names:
            dotted = _dotted(name)
            if dotted is not None and dotted.split(".")[-1] in self._BROAD:
                return dotted
        return None


# ---------------------------------------------------------------------------
# TL007 — __slots__ on simkernel classes


@register
class KernelClassesNeedSlots(Rule):
    code = "TL007"
    title = "simkernel classes must declare __slots__"
    rationale = (
        "Every event of a multi-day benchmark allocates kernel objects; "
        "per-instance dicts dominated the scheduling cost before the "
        "PR-1 optimization pass. __slots__ also forbids ad-hoc "
        "attribute injection, which keeps worker-process state "
        "identical to serial state.")
    scopes = ("repro.simkernel",)

    _EXEMPT_BASES = frozenset({"Protocol", "NamedTuple", "TypedDict",
                               "Enum", "IntEnum", "StrEnum"})

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._exempt(node) or self._declares_slots(node):
                continue
            yield self.violation(
                context, node,
                f"class `{node.name}` in simkernel has no __slots__; "
                "kernel objects are allocated per event and must stay "
                "dict-free")

    def _exempt(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            dotted = _dotted(base) or ""
            leaf = dotted.split(".")[-1]
            if (leaf in self._EXEMPT_BASES or leaf.endswith("Error")
                    or leaf.endswith("Exception")):
                return True
        for decorator in node.decorator_list:
            # @dataclass(slots=True) generates __slots__ itself.
            if (isinstance(decorator, ast.Call)
                    and (_dotted(decorator.func) or "").endswith("dataclass")
                    and any(kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                            for kw in decorator.keywords)):
                return True
        return False

    def _declares_slots(self, node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            if any(isinstance(target, ast.Name)
                   and target.id == "__slots__" for target in targets):
                return True
        return False


# ---------------------------------------------------------------------------
# TL008 — full annotations on public API


@register
class PublicApiFullyTyped(Rule):
    code = "TL008"
    title = "public core/simkernel/parallel functions fully annotated"
    rationale = (
        "The strict-mypy zone can only catch seed/state type confusion "
        "if public signatures are complete: every parameter and the "
        "return type. Private helpers (leading underscore) and nested "
        "closures are exempt.")
    scopes = ("repro.core", "repro.simkernel", "repro.parallel")

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for function in _public_functions(context.tree.body):
            name = function.name
            if name.startswith("_") and name != "__init__":
                continue
            missing = self._missing(function)
            if missing:
                yield self.violation(
                    context, function,
                    f"public `{name}()` is missing annotations for: "
                    f"{', '.join(missing)}")

    def _missing(self, node: ast.AST) -> Tuple[str, ...]:
        args = node.args
        missing = []
        positional = list(args.posonlyargs) + list(args.args)
        for index, arg in enumerate(positional):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in args.kwonlyargs:
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in (args.vararg, args.kwarg):
            if arg is not None and arg.annotation is None:
                missing.append("*" + arg.arg)
        if node.returns is None:
            missing.append("return")
        return tuple(missing)


# ---------------------------------------------------------------------------
# TL009 — no real sleeping or unbounded retries in the chaos package


@register
class ChaosNeverSleeps(Rule):
    code = "TL009"
    title = "chaos code must not sleep or retry unboundedly"
    rationale = (
        "Fault injection models retries by walking backoff schedules in "
        "*virtual* time: a real `time.sleep()` would stall the kernel "
        "and desynchronize runs, and a `while True:` retry loop has no "
        "budget, so an injected outage could hang the simulation "
        "forever. Retry loops must be bounded `for` loops over a "
        "BackoffPolicy's max_retries.")
    scopes = ("repro.chaos",)

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is not None and dotted.split(".")[-1] == "sleep":
                    yield self.violation(
                        context, node,
                        f"`{dotted}()` sleeps in real time; chaos code must "
                        "wait in virtual time via the kernel or "
                        "probe_through_backoff")
            elif isinstance(node, ast.While) and self._unbounded(node):
                yield self.violation(
                    context, node,
                    "unbounded `while` loop in chaos code; bound retries "
                    "with `for attempt in range(policy.max_retries)`")

    def _unbounded(self, node: ast.While) -> bool:
        """A constant-truthy test with no `break` can never terminate."""
        test = node.test
        constant_true = (isinstance(test, ast.Constant) and bool(test.value))
        if not constant_true:
            return False
        return not any(isinstance(inner, ast.Break)
                       for stmt in node.body for inner in ast.walk(stmt))


# ---------------------------------------------------------------------------
# TL010 — substream collisions (whole-program)


@register
class NoSubstreamCollision(Rule):
    code = "TL010"
    title = "no two call paths may draw the same RNG substream"
    rationale = (
        "RngRegistry memoizes generators by name, so two distinct call "
        "paths drawing the same `(namespace, name)` substream interleave "
        "their draws through one shared generator — adding a draw in "
        "either path silently shifts every later draw of the other (the "
        "PR-3 failover-downtime bug). Every substream must have exactly "
        "one owning call path; derive a sibling name instead of sharing.")
    program_wide = True

    def check_program(self, registry: "SubstreamRegistry"
                      ) -> Iterator[Violation]:
        for key, sites in registry.collisions():
            anchor = sites[-1]
            paths = "; ".join(site.where() for site in sites)
            yield Violation(
                path=anchor.path, line=anchor.line, col=anchor.col,
                rule=self.code,
                message=f"substream `{key}` is drawn from "
                        f"{len(sites)} distinct call paths: {paths}; "
                        "each substream must have one owner")


# ---------------------------------------------------------------------------
# TL011 — root-stream draws outside repro.rng (whole-program)


@register
class NoRootStreamDraws(Rule):
    code = "TL011"
    title = "no root-stream draws or root_seed reuse outside repro.rng"
    rationale = (
        "A zero-token `stream()`/`derive_seed()` call or a raw "
        "`root_seed` read bypasses the named-substream scheme: it "
        "aliases the registry root, so any component using it contends "
        "with every other. Name the substream; only repro.rng itself "
        "may touch the root entropy.")
    program_wide = True

    def check_program(self, registry: "SubstreamRegistry"
                      ) -> Iterator[Violation]:
        for site in registry.root_draws():
            yield Violation(
                path=site.path, line=site.line, col=site.col,
                rule=self.code,
                message=f"`{site.method}()` with no name tokens draws the "
                        "registry root stream; name the substream")
        for path, module, line in registry.root_seed_reads():
            yield Violation(
                path=path, line=line, col=0, rule=self.code,
                message=f"`root_seed` read in {module}: root entropy is "
                        "owned by repro.rng; derive a named seed with "
                        "`derive_seed(...)` instead")


# ---------------------------------------------------------------------------
# TL012 — unauditable (non-literal) draw names (whole-program)


@register
class DrawNamesMustBeAuditable(Rule):
    code = "TL012"
    title = "RNG draw names must be literal or declared via substream="
    rationale = (
        "The substream registry — and the DetSan runtime cross-check — "
        "can only audit draws whose names are statically known. A draw "
        "built from variables is invisible to both unless the site "
        "declares its name pattern with `# totolint: "
        "substream=<pattern>` (fnmatch over the `/`-joined tokens, e.g. "
        "`rgmanager/*/*`).")
    program_wide = True

    def check_program(self, registry: "SubstreamRegistry"
                      ) -> Iterator[Violation]:
        for site in registry.unauditable():
            dynamic = sum(1 for token in site.tokens if token is None)
            yield Violation(
                path=site.path, line=site.line, col=site.col,
                rule=self.code,
                message=f"`{site.method}()` has {dynamic} non-literal name "
                        "token(s) and no `# totolint: substream=` "
                        "annotation; the draw is unauditable")


# ---------------------------------------------------------------------------
# TL013 — unused suppressions (audit; implemented in the engine)


@register
class NoStaleSuppressions(Rule):
    code = "TL013"
    title = "every totolint suppression must still suppress something"
    rationale = (
        "A `# totolint: disable=` comment that no longer matches a "
        "violation is a standing invitation to reintroduce the bug it "
        "once hid: the suppression outlives the code it excused. The "
        "engine tracks which suppressions fired during the run and "
        "flags the rest. (The audit needs every rule's results, so "
        "selecting TL013 runs the full catalogue.)")

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        # The audit lives in the engine (_audit_suppressions): it can
        # only run after every other rule has reported.
        return iter(())


# ---------------------------------------------------------------------------
# TL014 — observability code is passive: no RNG, no clocks


@register
class ObservabilityIsPassive(Rule):
    code = "TL014"
    title = "repro.obs must not draw RNG or read clocks"
    rationale = (
        "The observability layer promises that an observed run is "
        "byte-identical to an unobserved one (docs/OBSERVABILITY.md): "
        "tracing, metrics, and profiling watch the simulation without "
        "participating in it. A single RNG draw inside `repro.obs` "
        "would shift every downstream substream; a wall-clock read "
        "would leak nondeterministic bytes into exports that must diff "
        "clean across machines and pool layouts. So the package may "
        "not import RNG or clock modules at all — profiling wall time "
        "is injected from outside as an opaque callable.")
    scopes = ("repro.obs",)

    #: Modules whose very import is banned inside the package.
    _BANNED_MODULES = ("random", "numpy.random", "repro.rng", "time",
                       "datetime")
    #: Method names that draw from an RNG stream or derive one.
    _DRAW_METHODS = frozenset({
        "stream", "derive_seed", "fork", "spawn", "integers", "normal",
        "choice", "shuffle", "permutation", "uniform", "exponential",
        "poisson", "standard_normal",
    })

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._banned(alias.name):
                        yield self.violation(
                            context, node,
                            f"`import {alias.name}` in repro.obs; "
                            "observability code may not read clocks or "
                            "draw RNG — inject capabilities from outside")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and self._banned(module):
                    yield self.violation(
                        context, node,
                        f"`from {module} import ...` in repro.obs; "
                        "observability code may not read clocks or draw "
                        "RNG — inject capabilities from outside")
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in self._DRAW_METHODS:
                    yield self.violation(
                        context, node,
                        f"`.{node.func.attr}()` looks like an RNG draw or "
                        "substream derivation; repro.obs is a pure "
                        "observer and must not consume randomness")

    def _banned(self, module: str) -> bool:
        return any(module == banned or module.startswith(banned + ".")
                   for banned in self._BANNED_MODULES)


# ---------------------------------------------------------------------------
# TL022 (fleet-scale rescans) and TL034 (merge-protocol conformance),
# defined in their own modules.  Imported last: both subclass
# Rule/register above, which are already bound by the time these
# imports execute.

from repro.analysis import perf_rules as _perf_rules  # noqa: E402,F401
from repro.analysis import numeric_rules as _numeric_rules  # noqa: E402,F401
