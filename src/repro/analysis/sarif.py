"""SARIF 2.1.0 output for totolint results.

SARIF (Static Analysis Results Interchange Format) is the lingua
franca code-scanning UIs ingest; emitting it lets CI upload lint
findings as a first-class artifact next to the stable JSON report.
Only the small, universally-supported subset of the schema is
produced: one run, one rule descriptor per catalogue entry, one
result per violation with a physical location.  Every rule is a hard
gate, so every descriptor and result has level ``error``.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.engine import LintReport
from repro.analysis.rules import all_rules

SARIF_VERSION = "2.1.0"
_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
           "master/Schemata/sarif-schema-2.1.0.json")


def format_sarif(report: LintReport) -> str:
    """Render a :class:`LintReport` as a SARIF 2.1.0 document."""
    rules: List[Dict[str, object]] = [
        {
            "id": rule.code,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.title},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in all_rules()
    ]
    rule_index = {rule["id"]: index for index, rule in enumerate(rules)}
    results: List[Dict[str, object]] = [
        {
            "ruleId": violation.rule,
            "ruleIndex": rule_index.get(violation.rule, -1),
            "level": "error",
            "message": {"text": violation.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": violation.path},
                    "region": {
                        "startLine": violation.line,
                        # SARIF columns are 1-based; ours are 0-based.
                        "startColumn": violation.col + 1,
                    },
                },
            }],
        }
        for violation in report.violations
    ]
    document: Dict[str, object] = {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "totolint",
                    "informationUri":
                        "docs/STATIC_ANALYSIS.md",
                    "rules": rules,
                },
            },
            "results": results,
            "properties": {
                "filesChecked": report.files_checked,
                "registrySize": report.registry_size,
                "hotFunctions": report.hot_functions,
            },
        }],
    }
    return json.dumps(document, indent=2, sort_keys=False)
