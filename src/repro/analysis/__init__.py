"""Determinism & correctness analysis (``totolint`` + DetSan).

The benchmark's headline promise — a parallel sweep reproduces the
serial loop *byte for byte* — only holds while no code path consults
wall-clock time, global RNG state, interpreter identity, or unordered
collection iteration on the event path.  This package machine-checks
that determinism contract from both sides:

* **Statically** — an AST lint engine (:mod:`.engine`) walks every
  module under ``src/repro/`` and applies the repo-specific rules
  registered in :mod:`.rules` (determinism TL001..TL014, fleet-scale
  rescans TL022 in :mod:`.perf_rules`, merge-protocol conformance
  TL034 in :mod:`.numeric_rules`); every rule is a hard gate.  A
  whole-program pass (:mod:`.graph`) builds the import/call graph,
  infers the hot set reachable from simkernel event handlers and chaos
  gates, derives the RNG substream registry (:mod:`.registry`) behind
  the TL010..TL012 rules, and collects the ``# totolint: merge-fn``
  registry behind TL034.
* **At runtime** — the DetSan sanitizer (:mod:`.detsan`) replays a
  scenario twice, fingerprints every RNG draw and event scheduling,
  and cross-checks each observed stream acquisition against the static
  registry (``repro run --detsan``).

Entry points:

* ``repro-toto lint`` — the CLI subcommand (see :mod:`repro.cli`).
* ``tools/totolint.py`` — the CI wrapper with stable exit codes.
* :func:`lint_paths` / :func:`lint_source` — the library API tests use.
* :func:`~repro.analysis.detsan.verify_run` — the DetSan library API.

Exit codes (stable; CI and pre-commit hooks rely on them):

* ``0`` — no violations,
* ``1`` — one or more violations,
* ``2`` — internal error (unreadable path, unparseable file, bad rule
  selection).
"""

from repro.analysis.engine import (
    LintReport,
    ModuleContext,
    Violation,
    lint_paths,
    lint_source,
)
from repro.analysis.graph import DrawSite, ProgramGraph
from repro.analysis.registry import RegistryEntry, SubstreamRegistry
from repro.analysis.report import format_json, format_text
from repro.analysis.rules import Rule, all_rules, get_rules

__all__ = [
    "DrawSite",
    "LintReport",
    "ModuleContext",
    "ProgramGraph",
    "RegistryEntry",
    "Rule",
    "SubstreamRegistry",
    "Violation",
    "all_rules",
    "format_json",
    "format_text",
    "get_rules",
    "lint_paths",
    "lint_source",
]
