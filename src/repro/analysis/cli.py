"""The ``totolint`` command-line front end.

Used two ways: ``repro-toto lint ...`` (the subcommand in
:mod:`repro.cli` forwards here) and ``python tools/totolint.py ...`` in
CI and pre-commit hooks.

Exit codes are part of the contract and must stay stable:

* ``0`` — lint ran and found nothing,
* ``1`` — lint ran and found violations,
* ``2`` — the tool itself failed (unknown rule, unreadable or
  unparseable file, missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

import repro
from repro.analysis.engine import LintEngineError, lint_paths
from repro.analysis.report import format_json, format_text
from repro.analysis.rules import all_rules, get_rules

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_INTERNAL_ERROR = 2


def default_target() -> Path:
    """The ``src/repro`` tree of the running installation."""
    return Path(repro.__file__).resolve().parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``lint`` options on ``parser``."""
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report style; json is the stable CI schema")
    parser.add_argument(
        "--rules", default=None, metavar="TL001,TL002",
        help="comma-separated rule subset (default: all rules)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit 0")


def run_lint(paths: Sequence[Path], output_format: str = "text",
             rules: Optional[str] = None, list_rules: bool = False,
             stdout: Optional[TextIO] = None,
             stderr: Optional[TextIO] = None) -> int:
    """Execute one lint run; returns the stable exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scopes) if rule.scopes else "all modules"
            kind = "program-wide" if rule.program_wide else scope
            print(f"{rule.code}  {rule.title}  [{kind}]", file=out)
        return EXIT_CLEAN
    try:
        # Unknown codes raise LintEngineError (exit 2) rather than
        # silently linting with a different rule set.
        selected = get_rules(rules.split(",")) if rules else None
        report = lint_paths(list(paths) or [default_target()],
                            rules=selected)
        formatted = (format_json(report) if output_format == "json"
                     else format_text(report))
    except LintEngineError as error:
        print(f"totolint: internal error: {error}", file=err)
        return EXIT_INTERNAL_ERROR
    except Exception as error:  # totolint: disable=TL006
        # Anything unexpected is a tool bug, never a violation: exit 2
        # so CI can tell "lint failed to run" from "lint found issues".
        print(f"totolint: internal error: {error!r}", file=err)
        return EXIT_INTERNAL_ERROR
    print(formatted, file=out)
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python tools/totolint.py``)."""
    parser = argparse.ArgumentParser(
        prog="totolint",
        description="determinism & correctness linter for the Toto "
                    "reproduction (TL001..TL014, TL022, TL034; "
                    "every rule is a hard gate)")
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(paths=args.paths, output_format=args.format,
                    rules=args.rules, list_rules=args.list_rules)


if __name__ == "__main__":
    sys.exit(main())
