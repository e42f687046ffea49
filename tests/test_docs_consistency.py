"""Docs-code consistency: the documentation's claims stay true.

These tests keep README/DESIGN/EXPERIMENTS honest as the code evolves:
every example the README lists exists (and vice versa), every
benchmark file is indexed in the docs, and the per-experiment index
references real modules.
"""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()
DESIGN = (REPO / "DESIGN.md").read_text()
EXPERIMENTS = (REPO / "EXPERIMENTS.md").read_text()
CHAOS_DOC = (REPO / "docs" / "CHAOS.md").read_text()
OBS_DOC = (REPO / "docs" / "OBSERVABILITY.md").read_text()
FLEET_DOC = (REPO / "docs" / "FLEET.md").read_text()
ORCH_DOC = (REPO / "docs" / "ORCHESTRATORS.md").read_text()


class TestExamples:
    def test_every_example_listed_in_readme(self):
        for path in sorted((REPO / "examples").glob("*.py")):
            assert f"examples/{path.name}" in README, \
                f"README does not mention {path.name}"

    def test_every_readme_example_exists(self):
        for name in re.findall(r"examples/(\w+\.py)", README):
            assert (REPO / "examples" / name).exists(), \
                f"README references missing examples/{name}"

    def test_examples_have_docstrings_and_main(self):
        for path in sorted((REPO / "examples").glob("*.py")):
            source = path.read_text()
            assert source.lstrip().startswith(("#!", '"""')), path.name
            assert 'if __name__ == "__main__":' in source, path.name


class TestBenchmarks:
    def test_every_bench_indexed_in_docs(self):
        for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
            reference = f"benchmarks/{path.name}"
            assert reference in DESIGN or reference in EXPERIMENTS, \
                f"{reference} not indexed in DESIGN.md or EXPERIMENTS.md"

    def test_every_indexed_bench_exists(self):
        for document in (DESIGN, EXPERIMENTS):
            for name in re.findall(r"benchmarks/(bench_\w+\.py)",
                                   document):
                assert (REPO / "benchmarks" / name).exists(), \
                    f"docs reference missing benchmarks/{name}"

    def test_paper_figures_all_covered(self):
        """Every evaluation figure/table has a bench file."""
        expected = {"fig02", "fig03", "fig06", "fig07", "fig08", "fig09",
                    "fig10", "fig11", "fig12", "fig13", "fig14",
                    "table1", "table2", "table3"}
        present = {match
                   for path in (REPO / "benchmarks").glob("bench_*.py")
                   for match in re.findall(r"(fig\d+|table\d+)",
                                           path.name)}
        assert expected <= present


class TestChaosDoc:
    def test_readme_and_experiments_cover_chaos(self):
        assert "docs/CHAOS.md" in README
        assert "--chaos" in README
        assert "--chaos" in EXPERIMENTS

    def test_every_fault_kind_documented(self):
        from repro.chaos import FaultKind
        for kind in FaultKind:
            assert f"`{kind.value}`" in CHAOS_DOC, \
                f"docs/CHAOS.md does not document fault kind {kind.value}"

    def test_documented_profiles_match_code(self):
        from repro.experiments.scenarios import CHAOS_PROFILES
        for name in CHAOS_PROFILES:
            assert f"`{name}`" in CHAOS_DOC, \
                f"docs/CHAOS.md does not mention profile {name}"

    def test_chaos_telemetry_counters_documented(self):
        for counter in ("faults_injected", "retries", "degraded_intervals"):
            assert counter in CHAOS_DOC

    def test_static_analysis_doc_covers_tl009(self):
        doc = (REPO / "docs" / "STATIC_ANALYSIS.md").read_text()
        assert "TL009" in doc
        assert "repro.chaos" in doc


class TestStaticAnalysisDoc:
    DOC = (REPO / "docs" / "STATIC_ANALYSIS.md").read_text()

    def test_every_rule_has_a_section(self):
        from repro.analysis import all_rules
        for rule in all_rules():
            assert f"### {rule.code} — " in self.DOC, \
                f"docs/STATIC_ANALYSIS.md has no section for {rule.code}"

    def test_detsan_and_ratchet_are_documented(self):
        assert "--detsan" in self.DOC
        assert "DetSan" in self.DOC
        assert "--write-baseline" in self.DOC
        assert "totolint-baseline.json" in self.DOC
        assert "substream=" in self.DOC
        assert "--cache" in self.DOC
        assert "SARIF" in self.DOC

    def test_readme_mentions_the_runtime_half(self):
        assert "--detsan" in README
        assert "--perfsan" in README
        assert "--floatsan" in README
        assert "TL001–TL014" in README
        assert "TL020–TL024" in README
        assert "TL030–TL034" in README

    def test_documented_rule_ids_match_registered_ones(self):
        from repro.analysis import all_rules
        registered = {rule.code for rule in all_rules()}
        documented = set(re.findall(r"### (TL\d+)", self.DOC))
        assert documented == registered, \
            "docs/STATIC_ANALYSIS.md sections out of sync with the registry"

    def test_perf_tier_and_perfsan_are_documented(self):
        assert "--perfsan" in self.DOC
        assert "PerfSan" in self.DOC
        assert "fleet-scale" in self.DOC
        assert "--select" in self.DOC
        assert "--ignore" in self.DOC

    def test_committed_baseline_is_valid_and_stays_burned_down(self):
        # The perf-tier burn-down finished (PR 9); the ratchet starts
        # clean, so any future entry is a deliberate, reviewed parking
        # decision — and determinism findings must never be parked.
        import json
        payload = json.loads(
            (REPO / "totolint-baseline.json").read_text())
        assert payload["version"] == 1
        assert payload["entries"] == [], \
            "the ratchet was burned down to zero; fix findings instead " \
            "of re-growing the baseline"


class TestNumericDoc:
    DOC = (REPO / "docs" / "STATIC_ANALYSIS.md").read_text()

    def test_numeric_tier_and_floatsan_are_documented(self):
        assert "--floatsan" in self.DOC
        assert "FloatSan" in self.DOC
        assert "merge-fn" in self.DOC
        assert "canonical-json" in self.DOC
        assert "merge-fn=insensitive" in self.DOC

    def test_every_numeric_rule_has_a_section(self):
        from repro.analysis.numeric_rules import NUMERIC_TIER
        for code in NUMERIC_TIER:
            assert f"### {code} — " in self.DOC, \
                f"docs/STATIC_ANALYSIS.md has no section for {code}"

    def test_doc_spec_keys_match_floatsan(self):
        # The documented spec-order keys are FloatSan's actual probe
        # order, not an approximation of it.
        from repro.analysis.floatsan import SPEC_KEYS
        for key in SPEC_KEYS:
            assert f"`{key}`" in self.DOC, \
                f"docs/STATIC_ANALYSIS.md misses spec key {key}"

    def test_doc_kpi_aggregates_match_the_rule(self):
        from repro.analysis.numeric_rules import _KPI_AGGREGATES
        for name in _KPI_AGGREGATES:
            assert name in self.DOC, \
                f"docs/STATIC_ANALYSIS.md misses KPI aggregate {name}"

    def test_annotated_merge_fns_exist_and_are_ordered(self):
        from repro.analysis import merge_registry
        registry = merge_registry([REPO / "src" / "repro"])
        qualnames = {qualname for _, qualname in registry}
        assert qualnames == {"merge_summaries", "merge_frames",
                             "merge_backend_summaries",
                             "adjusted_revenue_report"}
        assert set(registry.values()) == {"ordered"}


class TestObsDoc:
    def test_readme_and_experiments_cover_obs(self):
        assert "docs/OBSERVABILITY.md" in README
        for flag in ("--trace", "--metrics", "--profile", "--obs-dir"):
            assert flag in README, f"README does not mention {flag}"
            assert flag in OBS_DOC, \
                f"docs/OBSERVABILITY.md does not mention {flag}"
        assert "--metrics" in EXPERIMENTS

    def test_every_artifact_filename_documented(self):
        from repro.obs.export import (
            MANIFEST_FILENAME,
            METRICS_JSONL_FILENAME,
            METRICS_PROM_FILENAME,
            PROFILE_FILENAME,
            TRACE_FILENAME,
        )
        for name in (TRACE_FILENAME, METRICS_JSONL_FILENAME,
                     METRICS_PROM_FILENAME, PROFILE_FILENAME,
                     MANIFEST_FILENAME):
            assert name in OBS_DOC, \
                f"docs/OBSERVABILITY.md does not document {name}"

    def test_every_run_metric_documented(self):
        from repro.obs import RUN_METRIC_NAMES
        for name in RUN_METRIC_NAMES:
            assert f"`{name}`" in OBS_DOC, \
                f"docs/OBSERVABILITY.md does not document metric {name}"

    def test_trace_schema_fields_documented(self):
        for field in ("t_sched", "t_fire", "parent", "label", "seq"):
            assert f"`{field}`" in OBS_DOC, \
                f"docs/OBSERVABILITY.md does not document field {field}"

    def test_determinism_contract_documented(self):
        assert "TL014" in OBS_DOC
        assert "byte-identical" in OBS_DOC
        assert "add_frame_listener" in OBS_DOC
        assert "KernelObserver" in OBS_DOC

    def test_chaos_mark_labels_match_code(self):
        import re as _re
        injector_source = (REPO / "src" / "repro" / "chaos"
                           / "injector.py").read_text()
        for label in _re.findall(r'_mark\(f?"([a-z-]+)', injector_source):
            assert label in OBS_DOC, \
                f"docs/OBSERVABILITY.md misses chaos mark label {label}"


class TestFleetDoc:
    def test_readme_and_experiments_cover_fleet(self):
        assert "docs/FLEET.md" in README
        assert "FleetDensityStudy" in README
        assert "docs/FLEET.md" in EXPERIMENTS
        assert "FleetDensityStudy" in EXPERIMENTS

    def test_fleet_api_names_documented(self):
        for name in ("FleetTopology", "ClusterTemplate", "run_fleet",
                     "ClusterSummary", "fleet_digest", "SweepExecutor"):
            assert name in FLEET_DOC, \
                f"docs/FLEET.md does not mention {name}"

    def test_fleet_marker_documented(self):
        assert "-m fleet" in FLEET_DOC
        assert "-m fleet" in README

    def test_fleet_metric_names_match_code(self):
        runner_source = (REPO / "src" / "repro" / "fleet"
                         / "runner.py").read_text()
        names = set(re.findall(r'"(toto_fleet_\w+)"', runner_source))
        assert names, "expected toto_fleet_* metrics in fleet/runner.py"
        for name in sorted(names):
            assert f"`{name}`" in FLEET_DOC, \
                f"docs/FLEET.md does not document metric {name}"

    def test_columnar_escape_hatch_not_documented(self):
        """The columnar stores and their env switch are gone."""
        docs = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
                *sorted((REPO / "docs").glob("*.md"))]
        for path in docs:
            text = path.read_text()
            for name in ("colstore", "dbcolumns", "TOTO_OBJECT_STATE"):
                assert name not in text, f"{path.name} still mentions {name}"

    def test_template_fields_documented(self):
        import dataclasses
        from repro.fleet import ClusterTemplate
        for field in dataclasses.fields(ClusterTemplate):
            assert f"`{field.name}`" in FLEET_DOC, \
                f"docs/FLEET.md table misses template field {field.name}"


class TestOrchestratorDoc:
    def test_readme_and_experiments_cover_backends(self):
        assert "docs/ORCHESTRATORS.md" in README
        assert "--backend" in README
        assert "docs/ORCHESTRATORS.md" in EXPERIMENTS
        assert "BackendComparisonStudy" in EXPERIMENTS

    def test_backend_api_names_documented(self):
        for name in ("OrchestratorBackend", "backend_names",
                     "create_backend", "register_backend",
                     "KubernetesBackend", "ResourceSpec",
                     "PlacementAndLoadBalancer", "bootstrap_spill",
                     "BackendComparisonStudy", "backend_digest"):
            assert name in ORCH_DOC, \
                f"docs/ORCHESTRATORS.md does not mention {name}"

    def test_every_registered_backend_documented(self):
        from repro.fabric.backend import backend_names
        for name in backend_names():
            assert f"`{name}`" in ORCH_DOC, \
                f"docs/ORCHESTRATORS.md does not document backend {name}"

    def test_endpoints_prefix_matches_code(self):
        from repro.fabric.k8s import ENDPOINTS_PREFIX
        assert ENDPOINTS_PREFIX == "endpoints/"
        assert "endpoints/" in ORCH_DOC

    def test_cli_flag_documented_and_wired(self):
        assert "--backend" in ORCH_DOC
        cli_source = (REPO / "src" / "repro" / "cli.py").read_text()
        assert '"--backend"' in cli_source

    def test_comparison_metric_stems_match_code(self):
        fleet_source = (REPO / "src" / "repro" / "experiments"
                        / "fleet.py").read_text()
        assert 'f"toto_backend_{backend}"' in fleet_source
        assert "toto_backend_<name>_*" in ORCH_DOC
        for suffix in ("_reserved_cores", "_failover_cores",
                       "_adjusted_revenue", "_redirects_total",
                       "_capacity_failovers_total"):
            assert suffix in ORCH_DOC, \
                f"docs/ORCHESTRATORS.md misses metric suffix {suffix}"

    def test_conformance_suite_referenced(self):
        assert "tests/test_backend_conformance.py" in ORCH_DOC
        assert (REPO / "tests" / "test_backend_conformance.py").exists()

    def test_fleet_doc_cross_references(self):
        assert "docs/ORCHESTRATORS.md" in FLEET_DOC


class TestDesignIndex:
    def test_referenced_modules_exist(self):
        for module in re.findall(r"`repro\.([\w.]+)`", DESIGN):
            path = REPO / "src" / "repro" / (module.replace(".", "/"))
            assert (path.with_suffix(".py").exists()
                    or (path / "__init__.py").exists()), \
                f"DESIGN.md references missing module repro.{module}"

    def test_experiments_regeneration_command_present(self):
        assert "pytest benchmarks/ --benchmark-only" in EXPERIMENTS

    def test_paper_identity_check_present(self):
        assert "Moeller" in DESIGN
        assert "SIGMOD 2021" in DESIGN
