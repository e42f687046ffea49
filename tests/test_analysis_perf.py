"""TL022 (fleet-scale rescans) and TL023 (pickle-boundary purity).

Per-rule fired/silent fixture pairs; TL023 runs its program-wide pass
over small fixture trees written under ``tmp_path``. Also rule
selection by code and the repo-wide clean invariant for both rules.
"""

from io import StringIO

from repro.analysis import get_rules, lint_paths, lint_source
from repro.analysis.cli import EXIT_INTERNAL_ERROR, run_lint

#: Fixture path inside repro.simkernel, one of TL022's package scopes:
#: without a program graph every node there is in scope.
SIM = "src/repro/simkernel/example.py"


def codes(report):
    return [violation.rule for violation in report.violations]


def write_tree(tmp_path, files):
    root = tmp_path / "repro"
    for relative, source in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


class TestTL022:
    FLEET = (
        "class Collector:\n"
        "    def __init__(self):\n"
        "        self.frames = []  # totolint: fleet-scale\n"
        "        self._cursor = 0\n"
    )

    def test_full_scan_of_annotated_collection_fires(self):
        report = lint_source(
            self.FLEET +
            "    def on_event(self, now):\n"
            "        for frame in self.frames:\n"
            "            pass\n",
            path=SIM, rules=get_rules(["TL022"]))
        assert codes(report) == ["TL022"]
        assert "`frames`" in report.violations[0].message

    def test_dict_view_and_transparent_wrappers_fire(self):
        report = lint_source(
            "class Plane:\n"
            "    def __init__(self):\n"
            "        self._dbs = {}  # totolint: fleet-scale\n"
            "    def on_event(self):\n"
            "        return [db for db in self._dbs.values() if db]\n",
            path=SIM, rules=get_rules(["TL022"]))
        assert codes(report) == ["TL022"]

    def test_cursor_slice_is_silent(self):
        report = lint_source(
            self.FLEET +
            "    def on_event(self, now):\n"
            "        for frame in self.frames[self._cursor:]:\n"
            "            pass\n"
            "        self._cursor = len(self.frames)\n",
            path=SIM, rules=get_rules(["TL022"]))
        assert codes(report) == []

    def test_unannotated_collection_is_silent(self):
        report = lint_source(
            "class Collector:\n"
            "    def __init__(self):\n"
            "        self.frames = []\n"
            "    def on_event(self, now):\n"
            "        for frame in self.frames:\n"
            "            pass\n",
            path=SIM, rules=get_rules(["TL022"]))
        assert codes(report) == []


class TestTL023:
    def test_closure_capturing_sweep_payload_fires(self, tmp_path):
        root = write_tree(tmp_path, {
            "experiments/sweep.py":
                "def launch(pool, scenario):\n"
                "    return pool.submit(lambda: scenario.run())\n",
        })
        report = lint_paths([root], rules=get_rules(["TL023"]))
        assert codes(report) == ["TL023"]
        assert "pickle" in report.violations[0].message

    def test_worker_mutating_module_cache_fires(self, tmp_path):
        root = write_tree(tmp_path, {
            "experiments/sweep.py":
                "_CACHE = {}\n"
                "\n"
                "def work(item):\n"
                "    _CACHE[item] = item\n"
                "    return item\n"
                "\n"
                "def run(pool, items):\n"
                "    return [pool.submit(work, item) for item in items]\n",
        })
        report = lint_paths([root], rules=get_rules(["TL023"]))
        assert codes(report) == ["TL023"]
        assert "`work()`" in report.violations[0].message
        assert "`_CACHE`" in report.violations[0].message

    def test_initializer_delivery_is_sanctioned(self, tmp_path):
        root = write_tree(tmp_path, {
            "experiments/sweep.py":
                "_DOCS = {}\n"
                "\n"
                "def prime(doc):\n"
                "    _DOCS['doc'] = doc\n"
                "\n"
                "def work(item):\n"
                "    return _DOCS['doc'], item\n"
                "\n"
                "def run(pool, items, doc):\n"
                "    pool.child(initializer=prime, initargs=(doc,))\n"
                "    return [pool.submit(work, item) for item in items]\n",
        })
        report = lint_paths([root], rules=get_rules(["TL023"]))
        assert codes(report) == []

    def test_pure_payload_is_silent(self, tmp_path):
        root = write_tree(tmp_path, {
            "experiments/sweep.py":
                "def work(item):\n"
                "    return item * 2\n"
                "\n"
                "def run(pool, items):\n"
                "    return [pool.submit(work, item) for item in items]\n",
        })
        report = lint_paths([root], rules=get_rules(["TL023"]))
        assert codes(report) == []


class TestSelectIgnore:
    """Rule selection by code (``--rules``)."""

    def test_unknown_code_is_an_internal_error(self, tmp_path):
        root = write_tree(tmp_path, {
            "simkernel/loop.py": "def pump(events):\n"
                                 "    for event in events:\n"
                                 "        event.fire()\n"})
        err = StringIO()
        exit_code = run_lint(paths=[root], rules="TL022,TL999",
                             stdout=StringIO(), stderr=err)
        assert exit_code == EXIT_INTERNAL_ERROR
        assert "unknown rule 'TL999'" in err.getvalue()


class TestRepoPerfState:
    def test_repo_perf_tier_clean_modulo_committed_baseline(
            self, repo_lint_report):
        # No baseline is committed any more, so nothing is excused:
        # TL022 and TL023 gate hard like every other rule.
        perf = [v for v in repo_lint_report.violations
                if v.rule in ("TL022", "TL023")]
        assert perf == [], [
            f"{v.path}:{v.line} {v.rule} {v.message}" for v in perf]
