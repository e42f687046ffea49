"""Tests for the run-observability layer (repro.obs)."""

import json

import pytest

from repro.core.runner import run_scenario
from repro.core.scenario import BenchmarkScenario
from repro.experiments.scenarios import chaos_scenario
from repro.obs import (
    RUN_METRIC_NAMES,
    EventProfiler,
    MetricRegistry,
    ObsConfig,
    ObsSession,
    SpanTracer,
    build_manifest,
    format_profile_report,
    wire_run_metrics,
    write_obs_export,
)
from repro.obs.export import ObsExport
from repro.obs.metrics import MetricRegistryError, MetricStream
from repro.parallel.executor import SweepExecutor
from repro.simkernel import SimulationKernel
from repro.sqldb.population import InitialPopulationSpec
from repro.sqldb.tenant_ring import TenantRingConfig
from repro.telemetry.collector import TelemetryCollector
from repro.units import HOUR
from tests.conftest import SMALL_CAPACITIES, make_ring

ALL_ON = ObsConfig(trace=True, metrics=True, profile=True)


def obs_scenario(tiny_document, hours=4, seed=11, obs=ALL_ON, **kwargs):
    return BenchmarkScenario(
        name="test-obs",
        model_document=tiny_document,
        seed=seed,
        duration=hours * HOUR,
        ring=TenantRingConfig(node_count=6,
                              base_capacities=SMALL_CAPACITIES),
        initial_population=InitialPopulationSpec(
            gp_count=30, bc_count=6,
            target_core_fraction=0.7, target_disk_fraction=0.6),
        bootstrap_settle=HOUR,
        obs=obs,
        **kwargs)


def _observed_kernel(config=ALL_ON):
    session = ObsSession(config)
    return SimulationKernel(observer=session.kernel_observer), session


class TestSpanTracer:
    def test_meta_line_first(self):
        tracer = SpanTracer()
        lines = tracer.render().splitlines()
        assert json.loads(lines[0]) == {"type": "meta", "schema": 1}

    def test_parent_links_schedule_site_to_fire_site(self):
        kernel, session = _observed_kernel(ObsConfig(trace=True))

        def outer() -> None:
            kernel.schedule_after(60, inner, label="inner")

        def inner() -> None:
            pass

        kernel.schedule(10, outer, label="outer")
        kernel.run_to_completion()
        spans = {record["label"]: record
                 for record in map(json.loads, session.render()
                                   .trace_jsonl.splitlines())
                 if record["type"] == "span"}
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["inner"]["t_sched"] == 10
        assert spans["inner"]["t_fire"] == 70

    def test_mark_parented_to_current_span(self):
        kernel, session = _observed_kernel(ObsConfig(trace=True))

        def fires() -> None:
            session.tracer.mark("gate-hit", kernel.now)

        kernel.schedule(5, fires, label="firing")
        kernel.run_to_completion()
        records = [json.loads(line) for line in
                   session.render().trace_jsonl.splitlines()]
        marks = [r for r in records if r["type"] == "mark"]
        spans = [r for r in records if r["type"] == "span"]
        assert marks[0]["parent"] == spans[0]["id"]
        assert marks[0]["t"] == 5
        # Marks are emitted inside the span, so they precede it (the
        # span record is written when the callback returns).
        assert records.index(marks[0]) < records.index(spans[0])

    def test_lazy_labels_resolved(self):
        kernel, session = _observed_kernel(ObsConfig(trace=True))
        kernel.schedule(1, lambda: None, label=lambda: "lazy-label-7")
        kernel.run_to_completion()
        assert '"label":"lazy-label-7"' in session.render().trace_jsonl

    def test_span_ids_in_execution_order(self):
        kernel, session = _observed_kernel(ObsConfig(trace=True))
        for offset in (30, 10, 20):
            kernel.schedule(offset, lambda: None, label=f"e{offset}")
        kernel.run_to_completion()
        spans = [json.loads(line) for line in
                 session.render().trace_jsonl.splitlines()][1:]
        assert [s["label"] for s in spans] == ["e10", "e20", "e30"]
        assert [s["id"] for s in spans] == [1, 2, 3]


class TestEventProfiler:
    def run_three_events(self, clock=None):
        session = ObsSession(ObsConfig(profile=True, wall_clock=clock))
        kernel = SimulationKernel(observer=session.kernel_observer)
        kernel.schedule(0, lambda: None, label="tick")
        kernel.schedule(30, lambda: None, label="tick")
        kernel.schedule(7200, lambda: None, label="slow")
        kernel.run_to_completion()
        return session.profiler

    def test_delay_histogram(self):
        profiler = self.run_three_events()
        payload = json.loads(profiler.to_json())
        tick = payload["labels"]["tick"]
        assert tick["count"] == 2
        assert tick["vdelay_total_s"] == 30
        assert tick["vdelay_max_s"] == 30
        assert tick["vdelay_buckets"]["le_0"] == 1
        assert tick["vdelay_buckets"]["le_60"] == 1
        slow = payload["labels"]["slow"]
        assert slow["vdelay_buckets"]["le_14400"] == 1

    def test_export_has_no_wall_times(self):
        ticks = iter(range(100))
        profiler = self.run_three_events(clock=lambda: float(next(ticks)))
        assert "wall" not in profiler.to_json()

    def test_report_wall_columns_only_with_clock(self):
        without = self.run_three_events().format_report()
        assert "wall ms" not in without
        ticks = iter(range(100))
        with_clock = self.run_three_events(
            clock=lambda: float(next(ticks))).format_report()
        assert "wall ms" in with_clock

    def test_format_profile_report_from_export(self):
        report = format_profile_report(self.run_three_events().to_json(),
                                       top=1)
        assert "tick" in report
        assert "slow" not in report  # top=1 keeps only the busiest


class TestMetricRegistry:
    def test_name_validation(self):
        registry = MetricRegistry()
        with pytest.raises(MetricRegistryError):
            registry.gauge("reserved_cores", "no prefix", lambda: 0.0)
        with pytest.raises(MetricRegistryError):
            registry.counter("toto_things", "no _total", lambda: 0.0)
        with pytest.raises(MetricRegistryError):
            registry.gauge("toto_things_total", "gauge w/ _total",
                           lambda: 0.0)

    def test_duplicate_rejected(self):
        registry = MetricRegistry()
        registry.gauge("toto_x", "first", lambda: 1.0)
        with pytest.raises(MetricRegistryError):
            registry.gauge("toto_x", "again", lambda: 2.0)

    def test_prometheus_format(self):
        registry = MetricRegistry()
        registry.counter("toto_widgets_total", "Widgets.", lambda: 3)
        text = registry.to_prometheus()
        assert "# HELP toto_widgets_total Widgets.\n" in text
        assert "# TYPE toto_widgets_total counter\n" in text
        assert "toto_widgets_total 3.0" in text

    def test_run_catalogue_matches_pinned_names(self, kernel,
                                                rng_registry):
        ring = make_ring(kernel, rng_registry)
        collector = TelemetryCollector(kernel, ring)
        registry = MetricRegistry()
        wire_run_metrics(registry, kernel, ring, collector)
        assert registry.names() == RUN_METRIC_NAMES

    def test_stream_samples_ride_frames(self, kernel, rng_registry):
        ring = make_ring(kernel, rng_registry)
        collector = TelemetryCollector(kernel, ring)
        registry = MetricRegistry()
        wire_run_metrics(registry, kernel, ring, collector)
        stream = MetricStream(registry)
        collector.add_frame_listener(stream.on_frame)
        collector.start()
        kernel.run_until(2 * HOUR + 1)
        assert stream.samples == len(collector.frames) == 3
        sample = json.loads(stream.render().splitlines()[-1])
        assert sample["hour"] == 2
        assert sample["metrics"]["toto_kernel_events_executed_total"] >= 0


class TestObservedRunIsPassive:
    def test_kpis_and_events_byte_identical(self, tiny_document):
        plain = run_scenario(obs_scenario(tiny_document, obs=None))
        observed = run_scenario(obs_scenario(tiny_document))
        assert observed.kpis == plain.kpis
        assert observed.frames == plain.frames
        assert observed.events_executed == plain.events_executed
        assert plain.obs is None

    def test_span_per_executed_event(self, tiny_document):
        result = run_scenario(obs_scenario(tiny_document))
        records = [json.loads(line)
                   for line in result.obs.trace_jsonl.splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        assert len(spans) == result.events_executed

    def test_chaos_golden_run_unperturbed_and_marked(self):
        scenario = chaos_scenario("moderate", density=1.1, days=0.25)
        plain = run_scenario(scenario)
        observed = run_scenario(scenario.with_obs(ALL_ON))
        assert observed.kpis == plain.kpis
        assert observed.events_executed == plain.events_executed
        marks = [json.loads(line)
                 for line in observed.obs.trace_jsonl.splitlines()
                 if '"mark"' in line]
        assert marks, "a moderate chaos run should hit at least one gate"
        assert all(m["label"].startswith("chaos-") for m in marks)

    def test_detsan_clean_with_obs(self, tiny_document):
        from repro.analysis.detsan import verify_run
        _, report = verify_run(obs_scenario(tiny_document, hours=3))
        assert report.ok, report.format()

    def test_serial_vs_pooled_exports_byte_identical(self, tiny_document):
        scenarios = [obs_scenario(tiny_document, hours=3, seed=seed)
                     for seed in (11, 12)]
        serial = SweepExecutor(max_workers=1).run(scenarios)
        pooled = SweepExecutor(max_workers=2).run(scenarios)
        for left, right in zip(serial, pooled):
            assert left.obs == right.obs
            assert left.obs.trace_jsonl == right.obs.trace_jsonl
            assert left.obs.metrics_jsonl == right.obs.metrics_jsonl
            assert left.obs.metrics_prom == right.obs.metrics_prom
            assert left.obs.profile_json == right.obs.profile_json
            assert left.kpis == right.kpis


class TestExportAndManifest:
    def test_write_obs_export(self, tiny_document, tmp_path):
        scenario = obs_scenario(tiny_document, hours=2)
        result = run_scenario(scenario)
        written = write_obs_export(result.obs, tmp_path, scenario,
                                   git="test-rev")
        names = [path.name for path in written]
        assert names == ["trace.jsonl", "metrics.jsonl", "metrics.prom",
                         "profile.json", "manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario"]["seed"] == scenario.seed
        assert manifest["code"]["git_describe"] == "test-rev"
        import hashlib
        trace_sha = hashlib.sha256(
            (tmp_path / "trace.jsonl").read_bytes()).hexdigest()
        assert manifest["artifacts"]["trace.jsonl"] == trace_sha

    def test_manifest_is_deterministic(self, tiny_document):
        scenario = obs_scenario(tiny_document)
        export = ObsExport(trace_jsonl="{}\n")
        a = build_manifest(scenario, export, git="rev")
        b = build_manifest(scenario, export, git="rev")
        assert json.dumps(a, sort_keys=True) == json.dumps(b,
                                                           sort_keys=True)
        assert "timestamp" not in json.dumps(a)

    def test_partial_export_artifacts(self):
        export = ObsExport(metrics_prom="toto_x 1.0\n")
        assert export.artifacts() == {"metrics.prom": "toto_x 1.0\n"}

    def test_manifest_records_chaos_profile(self, tiny_document):
        scenario = chaos_scenario("light", days=0.25).with_obs(ALL_ON)
        manifest = build_manifest(scenario, ObsExport(), git="rev")
        assert manifest["scenario"]["chaos_profile"] == "light"

    def test_cli_export_parses_against_v1_schemas(self, tmp_path):
        from repro.cli import main
        assert main(["run", "--hours", "2", "--chaos", "moderate",
                     "--trace", "--metrics", "--profile",
                     "--obs-dir", str(tmp_path)]) == 0
        trace = [json.loads(line) for line in
                 (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert trace[0] == {"type": "meta", "schema": 1}
        keys = {"span": {"type", "id", "parent", "label", "seq", "t_sched",
                         "t_fire"},
                "mark": {"type", "id", "parent", "label", "t"}}
        for record in trace[1:]:
            assert record["type"] in keys, record
            assert set(record) == keys[record["type"]], record
        assert any(record["type"] == "span" for record in trace)
        for line in (tmp_path / "metrics.jsonl").read_text().splitlines():
            sample = json.loads(line)
            assert set(sample) == {"type", "hour", "time", "metrics"}
            assert all(name.startswith("toto_")
                       for name in sample["metrics"])
        profile = json.loads((tmp_path / "profile.json").read_text())
        assert profile["schema"] == 1 and profile["labels"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {
            "trace.jsonl", "metrics.jsonl", "metrics.prom", "profile.json"}


class TestObsConfig:
    def test_enabled_flags(self):
        assert not ObsConfig().enabled
        assert ObsConfig(trace=True).enabled
        assert ObsConfig(metrics=True).enabled
        assert ObsConfig(profile=True).enabled

    def test_kernel_observer_only_when_needed(self):
        # Metrics-only sessions ride telemetry frames; the kernel hot
        # loop must stay on its unobserved fast path.
        assert ObsSession(ObsConfig(metrics=True)).kernel_observer is None
        assert ObsSession(
            ObsConfig(trace=True)).kernel_observer is not None
        assert ObsSession(
            ObsConfig(profile=True)).kernel_observer is not None

    def test_with_obs_keeps_name(self, tiny_document):
        scenario = obs_scenario(tiny_document, obs=None)
        assert scenario.with_obs(ALL_ON).name == scenario.name
