"""Benchmark the whole-program analyzer: cold lint runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_lint.py

Every totolint run is cold: it parses every module, builds the call
graph, infers the hot set and derives the substream registry over the
real ``src/repro`` tree.  This benchmark times that (best of N) and
records the graph statistics next to it, so ``emit_bench.py --check``
can gate a lint-latency blowup.
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.analysis.engine import lint_paths  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def bench_lint(repeats: int = 3) -> dict:
    """Time full-catalogue analysis, best of ``repeats`` cold runs."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        report = lint_paths([SRC])
        seconds.append(time.perf_counter() - start)
    return {
        "files": report.files_checked,
        "registry_size": report.registry_size,
        "hot_functions": report.hot_functions,
        "cold_seconds": round(min(seconds), 3),
    }


def main() -> int:
    print(f"linting {SRC} cold ...", flush=True)
    result = bench_lint()
    print(f"  {result['files']} files, registry "
          f"{result['registry_size']}, hot {result['hot_functions']}")
    print(f"  cold {result['cold_seconds']}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
