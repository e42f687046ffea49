"""The numeric-determinism rule tier ("totonum", TL030..TL034).

Float addition is not associative: ``(a + b) + c`` and ``a + (b + c)``
differ in the last ulp often enough that any reduction whose operand
*order* can vary — hash-ordered sets, completion-ordered dict views,
numpy's pairwise summation, tree-shaped merges — produces
bit-different totals between a serial run and a sharded one.  The
fleet layer's byte-equality contract (docs/FLEET.md) therefore pins a
single summation order: strict left-to-right folds over spec-ordered
sequences, hashed through one canonical JSON sink.  This tier makes
that contract checkable:

* functions annotated ``# totolint: merge-fn`` form the **merge
  registry** — the only sanctioned float-reduction sites.  TL034
  checks their bodies are sequential left folds; the golden fleet
  digests and a shard-permutation property test check that callers
  feed them spec order;
* the **numeric scope** is everything reachable from registered merge
  helpers and ``# totolint: canonical-json`` sinks (plus their direct
  callers) via the PR-4 name-level over-approximation — the code that
  feeds values into merged KPIs and golden digests;
* single-module runs fall back to the fleet/revenue/telemetry/parallel
  package scopes.
"""

from __future__ import annotations

import ast
import re
from typing import (
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.engine import ModuleContext, Violation
from repro.analysis.graph import ModuleExtract, extract_module
from repro.analysis.rules import Rule, _dotted, register

#: Rule codes in this tier.
NUMERIC_TIER = ("TL030", "TL031", "TL032", "TL033", "TL034")

#: numpy reduction entry points whose summation order is pairwise (or
#: otherwise unspecified), not sequential.
_NUMPY_REDUCERS = frozenset({
    "sum", "mean", "average", "dot", "prod", "cumsum", "einsum",
    "nansum", "nanmean", "reduce",
})

#: The KPI aggregate types whose merging must go through the registry.
_KPI_AGGREGATES = frozenset({
    "ClusterSummary", "FleetKpis", "FleetFrame", "AdjustedRevenueReport",
})

#: Format specs that render a float (``.3f``, ``e``, ``g``, ``%`` …).
_FLOAT_SPEC = re.compile(r"[efg%]|\.\d")

#: Statement types a loop-body walk never descends into: nested loops
#: own their bodies (nearest-loop attribution), nested defs run on
#: their own schedule, and Return/Raise exit the loop, so work under
#: them is not per-iteration work.
_LOOP_WALK_STOPS = (ast.For, ast.AsyncFor, ast.While,
                    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                    ast.Return, ast.Raise)


def _loop_body_nodes(loop: ast.AST) -> Iterator[ast.AST]:
    """Every node executed per iteration of ``loop`` (see stops above).

    Lambda bodies are not descended into: a lambda body runs when the
    lambda is called, not when the loop spins.
    """
    stack: List[ast.AST] = list(loop.body) + list(loop.orelse)
    if isinstance(loop, ast.While):
        stack.append(loop.test)
    while stack:
        node = stack.pop()
        if isinstance(node, _LOOP_WALK_STOPS):
            continue
        yield node
        if not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))


def _module_extract(context: ModuleContext) -> ModuleExtract:
    """This module's graph extract (from the program graph when built)."""
    if context.program is not None:
        extract = context.program.modules.get(context.path)
        if extract is not None:
            return extract
    return extract_module(context.path, context.module, context.source)


def _functions_with_qualnames(
        tree: ast.AST) -> List[Tuple[str, ast.AST]]:
    """``(qualname, def-node)`` pairs, dotted like the graph extractor."""
    found: List[Tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name if prefix else child.name
                found.append((qualname, child))
                visit(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, (prefix + child.name + "."
                              if prefix else child.name + "."))
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _spans(extract: ModuleExtract,
           qualnames: Set[str]) -> List[Tuple[int, int]]:
    """Line spans of the named functions in one module extract."""
    return [(function.start, function.end)
            for function in extract.functions
            if function.qualname in qualnames]


def _in_spans(line: int, spans: List[Tuple[int, int]]) -> bool:
    return any(start <= line <= end for start, end in spans)


def _is_np_reduction(node: ast.AST) -> bool:
    """``np.sum(...)`` / ``numpy.mean(...)`` / ``np.add.reduce(...)``."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return False
    dotted = _dotted(node.func)
    if dotted is None:
        return False
    parts = dotted.split(".")
    return parts[0] in ("np", "numpy") and parts[-1] in _NUMPY_REDUCERS


class NumericPathRule(Rule):
    """A rule scoped to the program's merge/digest paths.

    With a program graph: every module is a candidate, but only nodes
    inside the inferred numeric scope (merge registry + canonical
    sinks + their feeders) are flagged.  Single-module runs fall back
    to the package scopes, where every node is in scope.
    """

    scopes = ("repro.fleet", "repro.revenue", "repro.telemetry",
              "repro.parallel")

    def applies_to(self, context: ModuleContext) -> bool:
        if context.program is not None:
            return True
        return super().applies_to(context)

    def in_scope(self, context: ModuleContext, node: ast.AST) -> bool:
        if context.program is None:
            return True
        return context.program.is_numeric(context.path,
                                          getattr(node, "lineno", 1))


# ---------------------------------------------------------------------------
# TL030 — float reductions over unordered iterables


@register
class NoUnorderedFloatReduction(NumericPathRule):
    code = "TL030"
    title = "no float reduction over unordered iterables on merge/digest paths"
    rationale = (
        "Float addition is order-sensitive, and sets (hash order) and "
        "raw dict views (insertion order — completion order, in merge "
        "code fed by pool workers) have no spec order, so `sum()` / "
        "`math.fsum()` / loop accumulation over one yields totals that "
        "differ bit-for-bit between runs and sharding modes. Reduce "
        "over the spec-ordered sequence instead: the index-aligned "
        "summary list, or `sorted(...)` by a stable key. Scope: the "
        "inferred merge/digest paths when the whole-program analyzer "
        "runs, the fleet/revenue packages otherwise.")

    _REDUCERS = frozenset({"sum", "fsum"})
    _SET_METHODS = frozenset({"union", "intersection", "difference",
                              "symmetric_difference"})
    _VIEW_METHODS = frozenset({"values", "items", "keys"})

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if (dotted is not None
                        and dotted.split(".")[-1] in self._REDUCERS
                        and node.args):
                    reason = self._unordered(node.args[0])
                    if reason and self.in_scope(context, node):
                        yield self.violation(
                            context, node,
                            f"float reduction over {reason}: summation "
                            "order is unspecified, so the total is not "
                            "bit-reproducible; reduce over the "
                            "spec-ordered sequence")
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                reason = self._unordered(node.iter)
                if (reason and self._accumulates(node)
                        and self.in_scope(context, node)):
                    yield self.violation(
                        context, node,
                        f"loop accumulation over {reason}: iteration "
                        "order is unspecified, so the accumulated "
                        "value is not bit-reproducible; iterate the "
                        "spec-ordered sequence")

    def _accumulates(self, loop: ast.AST) -> bool:
        return any(isinstance(node, ast.AugAssign)
                   and isinstance(node.op, ast.Add)
                   for node in _loop_body_nodes(loop))

    def _unordered(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            return self._unordered(node.generators[0].iter)
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name):
                if callee.id in ("set", "frozenset"):
                    return f"`{callee.id}(...)`"
                return None  # sorted(...)/list(...)/tuple(...) wrappers
            if isinstance(callee, ast.Attribute):
                if callee.attr in self._VIEW_METHODS:
                    return f"a raw `.{callee.attr}()` dict view"
                if callee.attr in self._SET_METHODS:
                    return f"a `.{callee.attr}()` result"
        return None


# ---------------------------------------------------------------------------
# TL031 — numpy reductions across the pickle/merge boundary


@register
class NoNumpyReductionAcrossBoundary(NumericPathRule):
    code = "TL031"
    title = "no numpy reductions on values crossing the pickle/merge boundary"
    rationale = (
        "`np.sum`/`np.mean`/`np.dot` use pairwise (tree) summation, "
        "which is bit-different from Python's sequential fold and may "
        "vary with array layout and numpy version — fine inside one "
        "model, fatal for a value that crosses the pickle boundary "
        "into the fleet merge or a golden digest, where every "
        "execution mode must reproduce one summation order. Route the "
        "cross-boundary reduction through a registered "
        "`# totolint: merge-fn` helper (sequential fold) instead. "
        "Scope: the merge/digest paths — a model reducing its own "
        "in-shard array is deterministic however numpy folds it; "
        "merge-fn bodies themselves are TL034's jurisdiction.")

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        candidates = [node for node in ast.walk(context.tree)
                      if _is_np_reduction(node)]
        if not candidates:
            return
        extract = _module_extract(context)
        merge_spans = _spans(extract, set(extract.merge_fns))
        for node in candidates:
            if _in_spans(node.lineno, merge_spans):
                continue  # TL034 audits registered merge bodies
            if self.in_scope(context, node):
                dotted = _dotted(node.func)
                yield self.violation(
                    context, node,
                    f"`{dotted}()` reduces pairwise on a value that "
                    "crosses the pickle/merge boundary; fold it "
                    "sequentially through a registered "
                    "`# totolint: merge-fn` helper")


# ---------------------------------------------------------------------------
# TL032 — float equality and float-keyed containers


@register
class NoFloatKeysOrEquality(NumericPathRule):
    code = "TL032"
    title = "no float equality or float-keyed containers on merge/digest paths"
    rationale = (
        "An accumulated float's exact bits depend on its summation "
        "history, so `== 0.25` flips between execution modes, and a "
        "float used as a dict key or set member is looked up by those "
        "exact bits — one ulp of drift silently splits or merges "
        "buckets. Compare against a tolerance (math.isclose) and key "
        "containers by integers or strings (hour indexes, ids).")

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Compare):
                yield from self._check_compare(context, node)
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if self._is_float(key) and self.in_scope(context, node):
                        yield self.violation(
                            context, key,  # type: ignore[arg-type]
                            "float dict key: lookup depends on exact "
                            "bits; key by an integer or string instead")
            elif isinstance(node, ast.Set):
                for element in node.elts:
                    if (self._is_float(element)
                            and self.in_scope(context, node)):
                        yield self.violation(
                            context, element,
                            "float set member: membership depends on "
                            "exact bits; use an integer or string "
                            "domain instead")

    def _check_compare(self, context: ModuleContext,
                       node: ast.Compare) -> Iterator[Violation]:
        operands = [node.left] + list(node.comparators)
        has_equality = any(isinstance(op, (ast.Eq, ast.NotEq))
                           for op in node.ops)
        if (has_equality
                and any(self._is_float(operand) for operand in operands)
                and self.in_scope(context, node)):
            yield self.violation(
                context, node,
                "float equality comparison: accumulated floats match "
                "only bit-for-bit; compare with math.isclose or an "
                "explicit tolerance")

    def _is_float(self, node: Optional[ast.expr]) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if (isinstance(node, ast.UnaryOp)
                and isinstance(node.op, (ast.USub, ast.UAdd))):
            return self._is_float(node.operand)
        return False


# ---------------------------------------------------------------------------
# TL033 — ad-hoc float rendering outside the canonical JSON sink


@register
class CanonicalFloatRendering(Rule):
    code = "TL033"
    title = "digest/export feeders must not hand-format floats"
    rationale = (
        "Golden digests survive Python upgrades because every float is "
        "rendered exactly once, by the canonical JSON sink "
        "(shortest-round-trip repr, sorted keys). A `str(x)`, "
        "`round(x, n)`, or `f\"{x:.3f}\"` in a function that feeds a "
        "digest or exported JSON bakes a second, lossy rendering into "
        "the artifact — two writers will eventually disagree. Pass "
        "floats through unformatted and let the sink render, or "
        "annotate a deliberate writer `# totolint: canonical-json`.")
    scopes = ("repro.fleet", "repro.revenue", "repro.telemetry",
              "repro.obs")

    _RENDER_CALLS = frozenset({"str", "round", "format"})

    def applies_to(self, context: ModuleContext) -> bool:
        if context.program is not None:
            return True
        return super().applies_to(context)

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        extract = _module_extract(context)
        canonical = set(extract.canonical_fns)
        sinks = self._sink_names(context, extract)
        for qualname, function in _functions_with_qualnames(context.tree):
            if qualname in canonical:
                continue
            if not self._feeds_export(function, sinks):
                continue
            for node in ast.walk(function):
                reason = self._rendering(node)
                if reason is not None:
                    yield self.violation(
                        context, node,
                        f"ad-hoc float rendering ({reason}) in "
                        f"`{qualname}()`, which feeds a digest or "
                        "exported JSON; pass floats through "
                        "unformatted, or annotate the writer "
                        "`# totolint: canonical-json`")

    def _sink_names(self, context: ModuleContext,
                    extract: ModuleExtract) -> Set[str]:
        names = {qualname.rsplit(".", 1)[-1]
                 for qualname in extract.canonical_fns}
        if context.program is not None:
            names |= context.program.canonical_sink_names()
        return names

    def _feeds_export(self, function: ast.AST, sinks: Set[str]) -> bool:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if dotted in ("json.dumps", "json.dump"):
                return True
            if dotted.split(".")[-1] in sinks:
                return True
        return False

    def _rendering(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in self._RENDER_CALLS
                    and len(node.args) >= 1 and not node.keywords):
                return f"`{node.func.id}(...)`"
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "format"
                    and isinstance(node.func.value, ast.Constant)
                    and isinstance(node.func.value.value, str)
                    and _FLOAT_SPEC.search(node.func.value.value)):
                return "float-spec `.format(...)`"
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if (isinstance(value, ast.FormattedValue)
                        and self._float_spec(value.format_spec)):
                    return "float-formatted f-string"
        return None

    def _float_spec(self, spec: Optional[ast.expr]) -> bool:
        if not isinstance(spec, ast.JoinedStr):
            return False
        text = "".join(value.value for value in spec.values
                       if isinstance(value, ast.Constant)
                       and isinstance(value.value, str))
        return bool(_FLOAT_SPEC.search(text))


# ---------------------------------------------------------------------------
# TL034 — merge-protocol conformance


@register
class MergeProtocolConformance(Rule):
    code = "TL034"
    title = "registered merge-fns must be sequential left folds"
    rationale = (
        "`# totolint: merge-fn` declares the one shape every execution "
        "mode reproduces: a left-to-right fold over the caller's "
        "spec-ordered input. A `reduce()`, numpy reduction, recursion, "
        "`reversed()`, or re-sort of the input inside a registered "
        "helper silently changes the association or operand order — "
        "bit drift that surfaces only as a moved golden digest. "
        "Conversely, a function that loop-accumulates KPI aggregates "
        "without the annotation is a merge site invisible to the "
        "registry and to this rule; register it.")

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        extract = _module_extract(context)
        registered = set(extract.merge_fns)
        for qualname, function in _functions_with_qualnames(context.tree):
            if qualname in registered:
                yield from self._check_merge_body(context, qualname,
                                                 function)
            elif self._unregistered_merge(function):
                yield self.violation(
                    context, function,
                    f"`{qualname}()` loop-accumulates KPI aggregates "
                    "without a `# totolint: merge-fn` annotation; "
                    "register it so TL034 can audit the fold order")

    def _check_merge_body(self, context: ModuleContext, qualname: str,
                          function: ast.AST) -> Iterator[Violation]:
        params = self._param_names(function)
        name = getattr(function, "name", "")
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            reason = None
            dotted = _dotted(node.func)
            terminal = dotted.split(".")[-1] if dotted else None
            if _is_np_reduction(node):
                reason = f"numpy reduction `{dotted}()` (pairwise order)"
            elif terminal == "reduce" and dotted not in (None,):
                reason = f"`{dotted}()` (association is not a left fold)"
            elif terminal == "reversed":
                reason = "`reversed(...)` (reorders the fold)"
            elif (terminal == "sorted" and node.args
                  and isinstance(node.args[0], ast.Name)
                  and node.args[0].id in params):
                reason = (f"`sorted({node.args[0].id})` re-sorts the "
                          "input; the caller owns spec order")
            elif terminal == name:
                reason = "self-recursion (a tree-shaped merge)"
            if reason is not None:
                yield self.violation(
                    context, node,
                    f"registered merge-fn `{qualname}()` {reason}; a "
                    "merge-fn must fold its input left-to-right, "
                    "sequentially, in the order given")

    def _param_names(self, function: ast.AST) -> Set[str]:
        args = function.args
        names = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                     *args.kwonlyargs)}
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                names.add(arg.arg)
        return names

    def _unregistered_merge(self, function: ast.AST) -> bool:
        mentions_kpis = False
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and node.id in _KPI_AGGREGATES:
                mentions_kpis = True
                break
            if (isinstance(node, ast.Attribute)
                    and node.attr in _KPI_AGGREGATES):
                mentions_kpis = True
                break
        if not mentions_kpis:
            return False
        return any(
            isinstance(node, (ast.For, ast.AsyncFor))
            and any(isinstance(inner, ast.AugAssign)
                    and isinstance(inner.op, ast.Add)
                    for inner in _loop_body_nodes(node))
            for node in ast.walk(function))
