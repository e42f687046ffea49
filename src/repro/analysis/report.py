"""Reporters: human text and machine JSON for lint results.

The JSON document shape is versioned and stable — CI parses it and the
artifact is diffed across runs, so field names and ordering must not
drift. Violations are already sorted by the engine
(path, line, col, rule).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.engine import LintReport


def format_text(report: LintReport, verbose: bool = False) -> str:
    """Human-readable report, one violation per line."""
    lines: List[str] = [violation.format()
                        for violation in report.violations]
    if report.clean:
        lines.append(f"totolint: {report.files_checked} files checked, "
                     "no violations")
    else:
        tally = ", ".join(f"{code} x{count}"
                          for code, count in report.counts().items())
        lines.append(f"totolint: {report.files_checked} files checked, "
                     f"{len(report.violations)} violations ({tally})")
    if report.program_built:
        lines.append(f"totolint: program graph: "
                     f"{report.hot_functions} hot functions, "
                     f"{report.registry_size} registry substreams")
    if verbose and not report.clean:
        lines.append("suppress a finding with "
                     "`# totolint: disable=<RULE>` on the flagged line")
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Stable JSON document (see docs/STATIC_ANALYSIS.md for the schema).

    ::

        {
          "version": 1,
          "tool": "totolint",
          "files_checked": 104,
          "violation_count": 0,
          "counts": {"TL001": 0-n, ...},
          "violations": [
            {"rule", "path", "line", "col", "message"}, ...
          ],
          "program": {"registry_size": 0-n, "hot_functions": 0-n}
        }
    """
    document: Dict[str, object] = {
        "version": 1,
        "tool": "totolint",
        "files_checked": report.files_checked,
        "violation_count": len(report.violations),
        "counts": report.counts(),
        "violations": [
            {"rule": violation.rule, "path": violation.path,
             "line": violation.line, "col": violation.col,
             "message": violation.message}
            for violation in report.violations
        ],
        # Additive (version stays 1): whole-program pass statistics.
        "program": {
            "registry_size": report.registry_size,
            "hot_functions": report.hot_functions,
        },
    }
    return json.dumps(document, indent=2, sort_keys=False)
