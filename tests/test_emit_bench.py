"""Regression tests for the BENCH_perf.json ``--check`` gates.

The gates run on shared CI runners, so every timing-derived gate must
know when its number is noise: the sweep wall ratio means nothing with
fewer cores than workers (it used to flag a ~1.0x ratio on 1-core
machines as a parallelism regression).  The deterministic checks are
tests, not gates: the fleet digest is pinned in
``tests/test_fleet_scale.py`` and sweep identity in
``tests/test_parallel_executor.py``.
"""

import json

from benchmarks.emit_bench import run_checks


def committed_record(tmp_path, **overrides):
    """A minimal committed BENCH_perf.json that skips the slow gates.

    The kernel gate is skipped by recording an impossible cpu_count and
    the lint gates by omitting ``cold_seconds`` — each test then
    overrides the one block it exercises.
    """
    payload = {
        "machine": {"cpu_count": -1},
        "sweep": {"results_identical": True, "workers": 4,
                  "effective_cores": 4, "speedup": 1.8,
                  "measured_ratio": 1.8},
    }
    payload.update(overrides)
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestSweepRatioGate:
    def test_cpu_bound_record_skips_the_ratio_gate(self, tmp_path, capsys):
        """A ~1.0x wall ratio on a 1-core machine is not a regression."""
        path = committed_record(tmp_path, sweep={
            "results_identical": True, "workers": 4,
            "effective_cores": 1, "speedup": None,
            "speedup_note": "cpu-bound: 1 core(s) < 4 workers",
            "measured_ratio": 0.97})
        assert run_checks(path, kernel_events=1) == 0
        assert "sweep ratio gate SKIPPED" in capsys.readouterr().out

    def test_slow_parallel_on_capable_machine_fails(self, tmp_path, capsys):
        path = committed_record(tmp_path, sweep={
            "results_identical": True, "workers": 4,
            "effective_cores": 8, "speedup": 0.7,
            "measured_ratio": 0.7})
        assert run_checks(path, kernel_events=1) == 1
        assert "speedup 0.7 < 1.0" in capsys.readouterr().out

    def test_healthy_speedup_passes(self, tmp_path, capsys):
        path = committed_record(tmp_path)
        assert run_checks(path, kernel_events=1) == 0
        assert "sweep ratio: OK" in capsys.readouterr().out


class TestExplicitGateField:
    """The committed record carries its own ``gate`` verdict."""

    def test_emitter_records_skipped_when_cpu_bound(self, monkeypatch):
        import benchmarks.emit_bench as emit_bench
        monkeypatch.setattr(emit_bench.os, "cpu_count", lambda: 1)
        sweep = emit_bench.bench_sweep(days=0.01, seeds=(42,), workers=4)
        assert sweep["gate"] == "skipped"
        assert sweep["speedup"] is None

    def test_emitter_records_active_with_enough_cores(self, monkeypatch):
        import benchmarks.emit_bench as emit_bench
        monkeypatch.setattr(emit_bench.os, "cpu_count", lambda: 64)
        sweep = emit_bench.bench_sweep(days=0.01, seeds=(42,), workers=1)
        assert sweep["gate"] == "active"
        assert sweep["speedup"] is not None

    def test_check_honors_explicit_skipped_gate(self, tmp_path, capsys):
        """An explicitly skipped record never trips the ratio gate,
        even when the raw ratio looks like a regression."""
        path = committed_record(tmp_path, sweep={
            "results_identical": True, "workers": 4,
            "effective_cores": 1, "speedup": None,
            "gate": "skipped", "measured_ratio": 0.5})
        assert run_checks(path, kernel_events=1) == 0
        assert "sweep ratio gate SKIPPED" in capsys.readouterr().out

    def test_check_honors_explicit_active_gate(self, tmp_path, capsys):
        path = committed_record(tmp_path, sweep={
            "results_identical": True, "workers": 4,
            "effective_cores": 8, "speedup": 0.7,
            "gate": "active", "measured_ratio": 0.7})
        assert run_checks(path, kernel_events=1) == 1
        assert "speedup 0.7 < 1.0" in capsys.readouterr().out

    def test_committed_record_carries_the_gate_field(self):
        """The repo's own BENCH_perf.json says whether its sweep ratio
        gates anything — the skip is data, not an inference."""
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        committed = json.loads((root / "BENCH_perf.json").read_text())
        assert committed["sweep"]["gate"] in ("skipped", "active")
        if committed["sweep"]["speedup"] is None:
            assert committed["sweep"]["gate"] == "skipped"
