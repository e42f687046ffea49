"""Metric-name rules, the declaration in BENCHMARK.json, the result line."""

from __future__ import annotations

import json

import pytest

from perfbench import report


@pytest.mark.parametrize("name", [
    "setup_s", "sim_s_per_cluster_day", "sqldb.rgmanager.get_metric_loads.calls",
    "fabric.backend.placement_success_ratio", "paper-steady", "9lives",
    "a" * 64])
def test_valid_names(name):
    assert report.valid_name(name)


@pytest.mark.parametrize("name", [
    "", ".calls", "_private", "-dash", "a b", "a/b", "a:b", "é", "a" * 65])
def test_invalid_names(name):
    assert not report.valid_name(name)


@pytest.mark.parametrize("unit", ["s", "ms", "s/cluster-day", "MB", "%",
                                  "count", "1/s", "us", "ratio"])
def test_valid_units(unit):
    assert report.valid_unit(unit)


@pytest.mark.parametrize("unit", ["", "a b", "s*s", "x" * 17])
def test_invalid_units(unit):
    assert not report.valid_unit(unit)


def test_benchmark_json_is_well_formed():
    _, _, spec = report.declared()
    assert report.check_declaration(spec) == []
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_declaration_check_catches_duplicates_and_bad_names():
    spec = {"workloads": [{"name": "w", "why": "."}],
            "end_to_end": [{"name": "x", "unit": "s", "better": "lower",
                            "bound": 0.1}],
            "per_layer": [{"name": "x", "unit": "s", "better": "lower"},
                          {"name": "bad name", "unit": "s", "better": "up"}]}
    problems = report.check_declaration(spec)
    assert any("used twice" in p for p in problems)
    assert any("malformed" in p for p in problems)
    assert any("better" in p for p in problems)


def test_result_line_requires_exactly_the_declared_metrics():
    units = {"a": "s", "b": "count"}
    line = json.loads(report.result_line(True, 3, 0, {"a": 1.5, "b": 2},
                                         units))
    assert line == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"a": {"value": 1.5, "unit": "s"},
                                "b": {"value": 2.0, "unit": "count"}}}
    with pytest.raises(ValueError, match="missing"):
        report.result_line(True, 1, 0, {"a": 1.0}, units)
    with pytest.raises(ValueError, match="undeclared"):
        report.result_line(True, 1, 0, {"a": 1.0, "b": 1.0, "c": 1.0}, units)
    with pytest.raises(ValueError, match="finite"):
        report.result_line(True, 1, 0, {"a": float("nan"), "b": 1.0}, units)
