#!/usr/bin/env python
"""CI/pre-commit wrapper for the determinism linter.

Runs without installation: prepends the repo's ``src/`` to ``sys.path``
and delegates to :mod:`repro.analysis.cli`. Exit codes are stable —
0 clean, 1 violations, 2 internal error — see docs/STATIC_ANALYSIS.md.

Usage::

    python tools/totolint.py                       # lint src/repro, every rule
    python tools/totolint.py --format json         # CI artifact
    python tools/totolint.py --rules TL001,TL006 src/repro/simkernel
    python tools/totolint.py --list-rules          # the catalogue
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
