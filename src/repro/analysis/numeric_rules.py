"""TL034: the merge-protocol rule.

Float addition is not associative: ``(a + b) + c`` and ``a + (b + c)``
differ in the last ulp often enough that any reduction whose operand
*order* can vary — hash-ordered sets, completion-ordered dict views,
numpy's pairwise summation, tree-shaped merges — produces
bit-different totals between a serial run and a sharded one.  The
fleet layer's byte-equality contract (docs/FLEET.md) therefore pins a
single summation order: strict left-to-right folds over spec-ordered
sequences.  Functions annotated ``# totolint: merge-fn`` form the
**merge registry** — the sanctioned float-reduction sites.  TL034
checks their bodies are sequential left folds and that no unannotated
function loop-accumulates KPI aggregates; the golden fleet and backend
digests and a shard-permutation property test check that callers feed
them spec order.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.engine import ModuleContext, Violation
from repro.analysis.graph import ModuleExtract, extract_module
from repro.analysis.rules import Rule, _dotted, register

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
