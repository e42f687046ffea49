"""TL022: the rule that keeps the simulator scaling.

It rides on the whole-program machinery of :mod:`.graph`: it flags full
scans of collections annotated ``# totolint: fleet-scale`` on the
inferred hot set, where a rescan turns per-event work into O(fleet)
work.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.engine import ModuleContext, Violation
from repro.analysis.rules import HotPathRule, register


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

