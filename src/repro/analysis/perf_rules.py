"""Rules that keep the simulator scaling: TL022 and TL023.

Both ride on the whole-program machinery of :mod:`.graph`:

* **TL022** flags full scans of collections annotated
  ``# totolint: fleet-scale`` on the inferred hot set, where a rescan
  turns per-event work into O(fleet) work;
* **TL023** is program-wide: it walks the functions reachable from
  pool ``submit()`` sites (the :class:`~repro.parallel.SweepExecutor`
  boundary) the same way hot-set inference walks callback roots, and
  flags payloads that cannot pickle or worker code that mutates
  module state.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Optional, Set

from repro.analysis.engine import ModuleContext, Violation
from repro.analysis.rules import HotPathRule, Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.registry import SubstreamRegistry


# ---------------------------------------------------------------------------
# TL022 — fleet-scale rescans on per-event paths


@register
class NoFleetScaleRescans(HotPathRule):
    code = "TL022"
    title = "no full scans of fleet-scale collections on per-event paths"
    rationale = (
        "Collections annotated `# totolint: fleet-scale` (databases, "
        "replicas, telemetry records) grow with the simulated fleet, "
        "so iterating one inside a per-event or per-frame function "
        "turns O(1) work into O(fleet) — the exact bug class PR 5 "
        "fixed by hand in the telemetry failover rollup. Keep a "
        "cursor into the collection, maintain a running aggregate, or "
        "move the scan off the event path.")
    scopes = ("repro.simkernel", "repro.fabric", "repro.sqldb",
              "repro.telemetry")

    #: Wrappers whose iteration is still a full scan of the argument.
    _TRANSPARENT = frozenset({"enumerate", "sorted", "reversed",
                              "list", "tuple"})
    _VIEW_METHODS = frozenset({"values", "items", "keys"})

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        names = self._fleet_names(context)
        if not names:
            return
        for node in ast.walk(context.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                name = self._scanned_name(candidate, names)
                if name is not None and self.in_scope(context, candidate):
                    yield self.violation(
                        context, candidate,
                        f"full scan of fleet-scale collection `{name}` "
                        "on a per-event path; advance a cursor or "
                        "maintain a running aggregate instead")

    def _fleet_names(self, context: ModuleContext) -> Set[str]:
        if context.program is not None:
            return context.program.fleet_scale_names()
        from repro.analysis.graph import extract_module
        extract = extract_module(context.path, context.module,
                                 context.source)
        return set(extract.fleet_scale)

    def _scanned_name(self, node: ast.expr,
                      names: Set[str]) -> Optional[str]:
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) \
                    and callee.id in self._TRANSPARENT and node.args:
                node = node.args[0]
            elif isinstance(callee, ast.Attribute) \
                    and callee.attr in self._VIEW_METHODS:
                node = callee.value
        if isinstance(node, ast.Name) and node.id in names:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in names:
            return node.attr
        return None


# ---------------------------------------------------------------------------
# TL023 — pickle-boundary purity for pool payloads (program-wide)


@register
class PickleBoundaryPurity(Rule):
    code = "TL023"
    title = "pool payloads must pickle and worker code must not mutate module state"
    rationale = (
        "The SweepExecutor boundary is a pickle boundary: a lambda or "
        "closure submitted to the pool cannot pickle at all (the "
        "executor silently falls back to serial, throwing the "
        "parallelism away), and a worker-side function that mutates a "
        "module-level cache builds state that never propagates back "
        "to the parent — or worse, diverges between workers. Deliver "
        "per-worker state through the pool initializer (the "
        "`_WORKER_DOCS` pattern) and keep every payload a plain "
        "picklable value. Worker-side reachability is name-based and "
        "over-approximate, like the hot-set inference.")
    program_wide = True

    def check_program(self, registry: "SubstreamRegistry"
                      ) -> Iterator[Violation]:
        graph = registry.graph
        inits = graph.worker_initializer_names()
        for path in sorted(graph.modules):
            for line in graph.modules[path].worker_lambdas:
                yield Violation(
                    path=path, line=line, col=0, rule=self.code,
                    message="lambda submitted to a worker pool: "
                            "closures do not pickle, so the sweep "
                            "degrades to serial; submit a module-level "
                            "function with picklable arguments")
        index = {(path, function.qualname): function
                 for path, extract in graph.modules.items()
                 for function in extract.functions}
        for path, qualname in sorted(graph.worker_functions()):
            function = index[(path, qualname)]
            if function.name in inits:
                continue  # the sanctioned worker-state delivery path
            mutables = set(graph.modules[path].module_mutables)
            for name in function.mutations:
                if name in mutables:
                    yield Violation(
                        path=path, line=function.start, col=0,
                        rule=self.code,
                        message=f"worker-side `{qualname}()` mutates "
                                f"module-level `{name}`: worker-cache "
                                "state never propagates back to the "
                                "parent; deliver it via the pool "
                                "initializer or key it by content")
