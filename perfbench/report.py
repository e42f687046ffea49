"""Metric names, summary statistics and the result line.

A metric name starts with a letter or digit and uses at most 64
letters, digits, ``_``, ``.`` and ``-``; a unit uses at most 16
letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``.
``BENCHMARK.json`` declares every metric the benchmark reports, and
:func:`result_line` refuses to emit a metric set that differs from it.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: The benchmark's declaration, at the root of the checkout.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def declared(path: Path = BENCHMARK_JSON
             ) -> Tuple[Dict[str, str], Dict[str, str], dict]:
    """``(end_to_end units, per_layer units, whole document)``."""
    spec = json.loads(path.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer, spec


def check_declaration(spec: dict) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document (empty when valid)."""
    problems: List[str] = []
    seen: set = set()
    metrics = ([("end_to_end", m) for m in spec["end_to_end"]]
               + [("per_layer", m) for m in spec["per_layer"]])
    for group, metric in metrics:
        name = metric["name"]
        if not valid_name(name):
            problems.append(f"{group} metric name {name!r} is malformed")
        if name in seen:
            problems.append(f"metric name {name!r} is used twice")
        seen.add(name)
        if not valid_unit(metric["unit"]):
            problems.append(f"unit {metric['unit']!r} of {name} is malformed")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"{name}: better must be lower or higher")
        expected = {"name", "unit", "better"} | (
            {"bound"} if group == "end_to_end" else set())
        if set(metric) != expected:
            problems.append(f"{name}: keys must be {sorted(expected)}")
    for workload in spec["workloads"]:
        if not valid_name(workload["name"]):
            problems.append(f"workload name {workload['name']!r} is malformed")
        if workload["name"] in seen:
            problems.append(f"name {workload['name']!r} is used twice")
        seen.add(workload["name"])
    return problems


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def result_line(correct: bool, attempted: int, failed: int,
                values: Mapping[str, float],
                units: Mapping[str, str]) -> str:
    """The final stdout line; ``values`` must cover exactly ``units``."""
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metric set mismatch: missing {missing}, "
                         f"undeclared {extra}")
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]),
                           "unit": units[name]} for name in units},
    })


def table(values: Mapping[str, float], units: Mapping[str, str]) -> str:
    """Human-readable ``name value unit`` lines, in declaration order."""
    width = max((len(name) for name in units), default=0)
    return "\n".join(f"{name:<{width}}  {values[name]:>14.6g}  {unit}"
                     for name, unit in units.items() if name in values)
