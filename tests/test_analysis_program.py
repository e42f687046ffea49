"""The whole-program analyzer and the DetSan runtime sanitizer.

Covers the call-graph/hot-path inference
(:mod:`repro.analysis.graph`), the RNG substream registry and its
TL010..TL012 rules, the TL013 suppression audit, the
exit-2 regression for unreadable input, and the DetSan recorder
including a forced first-mismatch divergence report.
Fixture trees are written under ``tmp_path`` with a ``repro/``
directory component so :func:`module_name_for` anchors them like real
package modules.
"""

import pathlib
import subprocess
import sys
from io import StringIO

from repro.analysis import (
    ProgramGraph,
    SubstreamRegistry,
    get_rules,
    lint_paths,
    lint_source,
)
from repro.analysis.cli import EXIT_INTERNAL_ERROR, run_lint
from repro.analysis.detsan import (
    DetSanRecorder,
    compare_ledgers,
    verify_run,
)
from repro.rng import RngRegistry

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def codes(report):
    return [violation.rule for violation in report.violations]


def write_tree(tmp_path, files):
    """Write ``{relative: source}`` under ``tmp_path/repro`` and
    return that root."""
    root = tmp_path / "repro"
    for relative, source in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


class TestProgramGraph:
    def test_draw_sites_literal_dynamic_and_annotated(self):
        graph = ProgramGraph.from_source(
            "def a(rng, name):\n"
            "    x = rng.stream('chaos', 'jitter')\n"
            "    y = rng.stream('node', 3)\n"
            "    z = rng.stream('fig', name)  # totolint: substream=fig/*\n"
            "    w = rng.derive_seed(name)\n")
        sites = graph.draw_sites()
        assert [site.method for site in sites] \
            == ["stream", "stream", "stream", "derive_seed"]
        assert sites[0].literal_key == ("chaos", "jitter")
        assert sites[1].literal_key == ("node", "3")
        assert sites[2].literal_key is None
        assert sites[2].annotation == "fig/*"
        assert sites[2].pattern == "fig/*"
        assert sites[3].literal_key is None
        assert sites[3].annotation is None

    def test_hot_inference_follows_callbacks_transitively(self):
        graph = ProgramGraph.from_source(
            "def handler():\n"
            "    helper()\n"
            "\n"
            "def helper():\n"
            "    pass\n"
            "\n"
            "def cold():\n"
            "    pass\n"
            "\n"
            "def wire(kernel):\n"
            "    kernel.schedule(10, handler, label='x')\n")
        hot = graph.hot_functions()
        assert any(name.endswith(":handler") for name in hot)
        assert any(name.endswith(":helper") for name in hot)
        assert not any(name.endswith(":cold") for name in hot)
        assert not any(name.endswith(":wire") for name in hot)

    def test_chaos_gates_are_roots(self):
        graph = ProgramGraph.from_source(
            "class Gate:\n"
            "    def on_read(self):\n"
            "        self._consult()\n"
            "    def _consult(self):\n"
            "        pass\n",
            path="src/repro/chaos/fixture.py")
        hot = graph.hot_functions()
        assert any(name.endswith("Gate.on_read") for name in hot)
        assert any(name.endswith("Gate._consult") for name in hot)


class TestTL010SubstreamCollision:
    def test_two_call_paths_same_key_fires_with_both_paths(self, tmp_path):
        """The seeded-collision end-to-end case from the issue: a
        duplicated literal draw across two modules must fire TL010 and
        name both call paths in the message."""
        root = write_tree(tmp_path, {
            "alpha.py": "def alpha_draw(rng):\n"
                        "    return rng.stream('chaos', 'jitter')\n",
            "beta.py": "def beta_draw(rng):\n"
                       "    return rng.stream('chaos', 'jitter')\n",
        })
        report = lint_paths([root], rules=get_rules(["TL010"]))
        assert codes(report) == ["TL010"]
        message = report.violations[0].message
        assert "chaos/jitter" in message
        assert "alpha_draw" in message
        assert "beta_draw" in message

    def test_same_function_repeat_draw_is_one_owner(self, tmp_path):
        root = write_tree(tmp_path, {
            "alpha.py": "def redraw(rng):\n"
                        "    a = rng.stream('chaos', 'jitter')\n"
                        "    b = rng.stream('chaos', 'jitter')\n"
                        "    return a, b\n",
        })
        report = lint_paths([root], rules=get_rules(["TL010"]))
        assert report.clean

    def test_distinct_keys_do_not_fire(self, tmp_path):
        root = write_tree(tmp_path, {
            "alpha.py": "def one(rng):\n"
                        "    return rng.stream('chaos', 'jitter')\n"
                        "def two(rng):\n"
                        "    return rng.stream('chaos', 'targets')\n",
        })
        assert lint_paths([root], rules=get_rules(["TL010"])).clean


class TestTL011RootStream:
    def test_zero_token_draw_fires(self, tmp_path):
        root = write_tree(tmp_path, {
            "alpha.py": "def naked(rng):\n"
                        "    return rng.stream()\n",
        })
        report = lint_paths([root], rules=get_rules(["TL011"]))
        assert codes(report) == ["TL011"]
        assert "root stream" in report.violations[0].message

    def test_root_seed_read_fires(self, tmp_path):
        root = write_tree(tmp_path, {
            "alpha.py": "def leak(rng):\n"
                        "    return rng.root_seed\n",
        })
        report = lint_paths([root], rules=get_rules(["TL011"]))
        assert codes(report) == ["TL011"]
        assert "root_seed" in report.violations[0].message

    def test_repro_rng_itself_is_sanctioned(self, tmp_path):
        root = write_tree(tmp_path, {
            "rng.py": "def fork_impl(self):\n"
                      "    return self.root_seed\n",
        })
        assert lint_paths([root], rules=get_rules(["TL011"])).clean

    def test_named_draws_do_not_fire(self, tmp_path):
        root = write_tree(tmp_path, {
            "alpha.py": "def named(rng):\n"
                        "    return rng.stream('population-manager')\n",
        })
        assert lint_paths([root], rules=get_rules(["TL011"])).clean


class TestTL012UnauditableDraw:
    def test_dynamic_tokens_without_annotation_fire(self, tmp_path):
        root = write_tree(tmp_path, {
            "alpha.py": "def dynamic(rng, node):\n"
                        "    return rng.stream('node', node)\n",
        })
        report = lint_paths([root], rules=get_rules(["TL012"]))
        assert codes(report) == ["TL012"]
        assert "substream=" in report.violations[0].message

    def test_annotation_silences(self, tmp_path):
        root = write_tree(tmp_path, {
            "alpha.py": "def dynamic(rng, node):\n"
                        "    return rng.stream('node', node)"
                        "  # totolint: substream=node/*\n",
        })
        assert lint_paths([root], rules=get_rules(["TL012"])).clean

    def test_fully_literal_draws_are_silent(self, tmp_path):
        root = write_tree(tmp_path, {
            "alpha.py": "def literal(rng):\n"
                        "    return rng.stream('bootstrap')\n",
        })
        assert lint_paths([root], rules=get_rules(["TL012"])).clean


class TestTL013UnusedSuppression:
    def test_unused_line_suppression_fires(self):
        report = lint_source("def fine(x: int) -> int:\n"
                             "    return x  # totolint: disable=TL001\n")
        assert codes(report) == ["TL013"]
        assert "disable=TL001" in report.violations[0].message

    def test_unused_file_suppression_fires(self):
        report = lint_source("# totolint: disable-file=TL005\n"
                             "def fine(x: int) -> int:\n"
                             "    return x\n")
        assert codes(report) == ["TL013"]
        assert "disable-file=TL005" in report.violations[0].message

    def test_used_suppression_is_silent(self):
        report = lint_source("import time\n"
                             "def stamp():\n"
                             "    return time.time()"
                             "  # totolint: disable=TL001\n")
        assert report.clean

    def test_selecting_tl013_runs_full_catalogue_under_the_hood(self):
        source = ("import time\n"
                  "def stamp():\n"
                  "    return time.time()  # totolint: disable=TL001\n"
                  "def fine(x: int) -> int:\n"
                  "    return x  # totolint: disable=TL002\n")
        report = lint_source(source, rules=get_rules(["TL013"]))
        # Only the stale TL002 comment fires: TL001's suppression is
        # used (even though TL001 is not in the selection), and the
        # suppressed TL001 itself must not leak into the report.
        assert codes(report) == ["TL013"]
        assert "TL002" in report.violations[0].message


class TestUnreadableInputExit2:
    """Satellite: invalid input must exit 2 with a clean one-liner."""

    def test_undecodable_file_is_clean_exit_two(self, tmp_path):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"x = '\xff\xfe'\n")
        out, err = StringIO(), StringIO()
        code = run_lint(paths=[bad], stdout=out, stderr=err)
        assert code == EXIT_INTERNAL_ERROR
        assert "cannot decode" in err.getvalue()
        assert "Traceback" not in err.getvalue()

    def test_tools_wrapper_exits_two_without_traceback(self, tmp_path):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"x = '\xff\xfe'\n")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "totolint.py"),
             str(bad)],
            capture_output=True, text=True, cwd=str(tmp_path))
        assert proc.returncode == EXIT_INTERNAL_ERROR
        assert "Traceback" not in proc.stderr
        assert "internal error" in proc.stderr

    def test_syntax_error_still_exits_two(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        out, err = StringIO(), StringIO()
        code = run_lint(paths=[bad], stdout=out, stderr=err)
        assert code == EXIT_INTERNAL_ERROR
        assert "Traceback" not in err.getvalue()


class TestDetSanRecorder:
    def test_recording_is_result_neutral_and_identity_stable(self):
        plain = RngRegistry(root_seed=42)
        recorded = RngRegistry(root_seed=42, recorder=DetSanRecorder())
        a = recorded.stream("chaos", "jitter")
        assert a is recorded.stream("chaos", "jitter")
        expected = plain.stream("chaos", "jitter").integers(0, 1000, size=8)
        observed = a.integers(0, 1000, size=8)
        assert list(observed) == list(expected)
        assert plain.derive_seed("x", 1) == recorded.derive_seed("x", 1)

    def test_ledger_records_streams_draws_and_events(self):
        recorder = DetSanRecorder()
        rng = RngRegistry(root_seed=7, recorder=recorder)
        rng.stream("chaos", "jitter").integers(0, 10)
        rng.derive_seed("node", 3)
        recorder.record_event(120, "tick")
        recorder.record_event(180, lambda: "lazy-label")
        kinds = [entry[0] for entry in recorder.entries]
        assert kinds == ["stream", "draw", "stream", "event", "event"]
        assert recorder.entries[0][2] == "chaos/jitter"
        assert recorder.entries[1][2] == "integers"
        assert recorder.entries[3] == ("event", 120, "tick")
        assert recorder.entries[4] == ("event", 180, "lazy-label")
        # This very file is the recorded acquisition site.
        assert recorder.acquisitions()[0][2].endswith(
            "test_analysis_program.py")

    def test_fork_inherits_the_recorder(self):
        recorder = DetSanRecorder()
        rng = RngRegistry(root_seed=7, recorder=recorder)
        child = rng.fork("chaos")
        assert child.recorder is recorder
        child.stream("backoff").normal()
        assert [entry[0] for entry in recorder.entries] \
            == ["stream", "stream", "draw"]

    def test_divergence_reports_first_mismatch(self):
        recorder = DetSanRecorder()
        rng = RngRegistry(root_seed=7, recorder=recorder)
        stream = rng.stream("chaos", "jitter")
        for _ in range(5):
            stream.integers(0, 10)
        mutated = list(recorder.entries)
        mutated[3] = ("draw", "chaos/jitter", "normal", "elsewhere.py", 1)
        divergence = compare_ledgers(recorder.entries, mutated)
        assert divergence is not None
        assert divergence.index == 3
        assert divergence.first[2] == "integers"
        assert divergence.second[2] == "normal"
        assert len(divergence.context) == 3
        text = divergence.format()
        assert "first divergence at ledger entry 3" in text
        assert "normal" in text and "integers" in text

    def test_identical_ledgers_and_length_mismatch(self):
        entries = [("event", 1, "a"), ("event", 2, "b")]
        assert compare_ledgers(entries, list(entries)) is None
        divergence = compare_ledgers(entries, entries[:1])
        assert divergence is not None
        assert divergence.index == 1
        assert divergence.second is None

    def test_fingerprint_is_order_sensitive(self):
        one, two = DetSanRecorder(), DetSanRecorder()
        one.record_event(1, "a")
        one.record_event(2, "b")
        two.record_event(2, "b")
        two.record_event(1, "a")
        assert one.fingerprint() != two.fingerprint()

    def test_fingerprint_ignores_line_numbers_only(self):
        """An edit that moves a draw site keeps the fingerprint; a
        different stream, method, file or order does not."""
        base = [("stream", "stream", "plb", "repro/fabric/plb.py", 135),
                ("draw", "plb", "integers", "repro/fabric/plb.py", 310),
                ("event", 60, "tick")]

        def fingerprint(entries):
            recorder = DetSanRecorder()
            recorder.entries.extend(entries)
            return recorder.fingerprint()

        moved = [base[0][:-1] + (139,), base[1][:-1] + (311,), base[2]]
        assert fingerprint(moved) == fingerprint(base)
        assert compare_ledgers(base, moved) is not None
        variants = [
            [base[0][:2] + ("plb/x",) + base[0][3:], *base[1:]],
            [base[0], base[1][:2] + ("random",) + base[1][3:], base[2]],
            [base[0], base[1][:3] + ("repro/fabric/k8s.py", 310), base[2]],
            [base[1], base[0], base[2]],
            [*base[:2], ("event", 60, "tock")],
        ]
        for variant in variants:
            assert fingerprint(variant) != fingerprint(base), variant


class TestDetSanEndToEnd:
    def test_short_run_verifies_against_the_registry(self):
        from repro.experiments.scenarios import paper_scenario
        scenario = paper_scenario(density=1.1, days=1 / 24.0, seed=11,
                                  maintenance=False)
        result, report = verify_run(scenario)
        assert report.ok, report.format()
        assert report.divergence is None
        assert report.unknown_sites == []
        assert report.unknown_names == []
        assert report.entries > 0
        assert report.acquisitions > 0
        assert report.registry_size > 0
        assert report.fingerprint == report.replay_fingerprint
        assert result.events_executed > 0
        assert "OK" in report.format()

    def test_ledger_sites_do_not_depend_on_the_checkout_path(self):
        """Sites under the package root are recorded as ``repro/...``
        paths, so two checkouts print the same fingerprint."""
        from repro.core.runner import run_scenario
        from repro.experiments.scenarios import paper_scenario
        recorder = DetSanRecorder()
        run_scenario(paper_scenario(density=1.1, days=1 / 24.0, seed=11,
                                    maintenance=False), detsan=recorder)
        sites = {entry[3] for entry in recorder.entries
                 if entry[0] in ("stream", "draw")}
        assert sites
        assert [site for site in sites
                if pathlib.PurePath(site).parts[0] != "repro"] == []


class TestRepoRegistry:
    """The acceptance criteria on the real tree."""

    def test_registry_is_nonempty_and_conflict_free(self):
        graph = ProgramGraph.build([SRC])
        registry = SubstreamRegistry(graph)
        assert len(registry) >= 10
        assert registry.collisions() == []
        assert registry.root_draws() == []
        assert registry.unauditable() == []
        # Known substreams from the runner are present.
        names = registry.names()
        assert "bootstrap" in names
        assert "population-manager" in names
        assert "chaos/*" in names

    def test_repo_lints_clean(self, repo_lint_report):
        # The full catalogue, every rule a hard gate, no baseline; the
        # one whole-repo lint of the suite (shared via conftest).
        report = repo_lint_report
        assert report.violations == (), [
            f"{v.path}:{v.line} {v.rule} {v.message}"
            for v in report.violations]
        assert report.files_checked > 80
        assert report.registry_size >= 10
        assert report.hot_functions > 50
