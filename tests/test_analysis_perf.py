"""TL022 (fleet-scale rescans).

Fired/silent fixture pairs, rule selection by code and the repo-wide
clean invariant.
"""

from io import StringIO

from repro.analysis import get_rules, lint_source
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
        # TL022 gates hard like every other rule.
        perf = [v for v in repo_lint_report.violations
                if v.rule == "TL022"]
        assert perf == [], [
            f"{v.path}:{v.line} {v.rule} {v.message}" for v in perf]
