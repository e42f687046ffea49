"""Benchmark the whole-program analyzer: cold vs. cached lint runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_lint.py

The totolint whole-program pass (call graph + hot-path inference +
substream registry) re-walks every AST on a cold run but reuses
per-file extracts keyed by content hash when ``--cache`` points at a
warm cache.  This benchmark measures both over the real ``src/repro``
tree and reports the speedup the incremental cache buys — the number
CI's incremental smoke keeps honest (a cached re-run must report zero
misses).
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.analysis.engine import lint_paths  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _bench_rules(repeats: int, rules=None) -> dict:
    """Time cold (no cache reuse) and cached full-tree analysis."""
    with tempfile.TemporaryDirectory(prefix="bench-lint-") as tmp:
        cache = pathlib.Path(tmp) / "cache.json"

        cold_seconds = []
        for _ in range(repeats):
            cache.unlink(missing_ok=True)
            start = time.perf_counter()
            report = lint_paths([SRC], rules=rules, cache_path=cache)
            cold_seconds.append(time.perf_counter() - start)
            assert report.cache_misses > 0

        cached_seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            report = lint_paths([SRC], rules=rules, cache_path=cache)
            cached_seconds.append(time.perf_counter() - start)
            assert report.cache_misses == 0, "cache did not take"

        cold = min(cold_seconds)
        cached = min(cached_seconds)
        return {
            "files": report.files_checked,
            "registry_size": report.registry_size,
            "hot_functions": report.hot_functions,
            "cold_seconds": round(cold, 3),
            "cached_seconds": round(cached, 3),
            "cache_speedup": round(cold / cached, 2),
        }


def bench_lint(repeats: int = 3) -> dict:
    """Full-catalogue analysis, cold vs. cached."""
    return _bench_rules(repeats)


def bench_totonum(repeats: int = 3) -> dict:
    """The numeric tier (TL030..TL034) alone, cold vs. cached.

    The numeric rules reuse the same cached extracts (merge registry,
    canonical sinks, numeric intervals) as the other rules; this row
    keeps the tier's marginal cost visible in BENCH_perf.json.
    """
    from repro.analysis.numeric_rules import NUMERIC_TIER
    from repro.analysis.rules import get_rules

    return _bench_rules(repeats, rules=get_rules(NUMERIC_TIER))


def main() -> int:
    print(f"linting {SRC} cold vs cached ...", flush=True)
    result = bench_lint()
    print(f"  {result['files']} files, registry "
          f"{result['registry_size']}, hot {result['hot_functions']}")
    print(f"  cold {result['cold_seconds']}s, cached "
          f"{result['cached_seconds']}s -> "
          f"{result['cache_speedup']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
