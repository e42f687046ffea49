"""The determinism linter: every rule fires on bad code, stays silent
on good code, suppressions work, reports are stable, exit codes hold.

Each rule test feeds a crafted snippet through
:func:`repro.analysis.lint_source` under a virtual path, so
package-scoped rules (TL003/TL007/TL008) can be exercised without
touching the real tree. The suite ends with the contract that matters
most: the repository itself lints clean.
"""

import json
import pathlib
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis import (
    LintReport,
    all_rules,
    format_json,
    format_text,
    get_rules,
    lint_paths,
    lint_source,
)
from repro.analysis.cli import (
    EXIT_CLEAN,
    EXIT_INTERNAL_ERROR,
    EXIT_VIOLATIONS,
    run_lint,
)
from repro.analysis.engine import LintEngineError, module_name_for

REPO = pathlib.Path(__file__).resolve().parent.parent

SIMKERNEL = "src/repro/simkernel/fixture.py"
FABRIC = "src/repro/fabric/fixture.py"
CORE = "src/repro/core/fixture.py"
STATS = "src/repro/stats/fixture.py"
CHAOS = "src/repro/chaos/fixture.py"


def codes(report, path=None):
    return [violation.rule for violation in report.violations]


class TestTL001WallClock:
    def test_fires_on_time_time(self):
        report = lint_source("import time\n\n"
                             "def stamp():\n"
                             "    return time.time()\n")
        assert codes(report) == ["TL001"]

    def test_fires_on_datetime_now_and_bare_perf_counter(self):
        report = lint_source(
            "import datetime\n"
            "from time import perf_counter\n\n"
            "def stamps():\n"
            "    return datetime.datetime.now(), perf_counter()\n")
        assert codes(report) == ["TL001", "TL001"]

    def test_silent_on_kernel_clock(self):
        report = lint_source("def stamp(kernel):\n"
                             "    return kernel.now\n",
                             path=STATS)
        assert "TL001" not in codes(report)


class TestTL002GlobalRng:
    def test_fires_on_random_module_and_np_seed(self):
        report = lint_source("import random\n"
                             "import numpy as np\n\n"
                             "def draw():\n"
                             "    np.random.seed(7)\n"
                             "    return random.random()\n")
        assert codes(report) == ["TL002", "TL002"]

    def test_silent_on_seeded_generators_and_streams(self):
        report = lint_source(
            "import numpy as np\n\n"
            "def draw(registry):\n"
            "    rng = np.random.default_rng(42)\n"
            "    seq = np.random.SeedSequence(entropy=1)\n"
            "    return rng.normal(), registry.stream('plb').random(), seq\n")
        assert "TL002" not in codes(report)


class TestTL003UnorderedIteration:
    def test_fires_on_set_iteration_in_hot_package(self):
        report = lint_source("def drain(pending: list) -> None:\n"
                             "    for item in set(pending):\n"
                             "        item.fire()\n",
                             path=SIMKERNEL)
        assert codes(report) == ["TL003"]

    def test_fires_on_set_literal_and_union_comprehension(self):
        report = lint_source(
            "def spread(a, b):\n"
            "    totals = [n.load for n in a.union(b)]\n"
            "    for node in {a, b}:\n"
            "        node.rebalance()\n"
            "    return totals\n",
            path=FABRIC)
        assert codes(report) == ["TL003", "TL003"]

    def test_silent_when_sorted_or_membership_only(self):
        report = lint_source(
            "def drain(pending, seen):\n"
            "    for item in sorted(set(pending)):\n"
            "        if item in {1, 2}:\n"
            "            seen.add(item)\n",
            path=SIMKERNEL)
        assert "TL003" not in codes(report)

    def test_out_of_scope_package_is_not_checked(self):
        report = lint_source("def tally(values):\n"
                             "    return [v for v in set(values)]\n",
                             path=STATS)
        assert "TL003" not in codes(report)


class TestTL004IdentityKeys:
    def test_fires_on_id_and_hash_calls(self):
        report = lint_source(
            "def order(replicas, name):\n"
            "    bucket = hash(name) % 8\n"
            "    return sorted(replicas, key=lambda r: id(r)), bucket\n")
        assert codes(report) == ["TL004", "TL004"]

    def test_silent_on_stable_keys(self):
        report = lint_source(
            "def order(replicas):\n"
            "    return sorted(replicas, key=lambda r: r.replica_id)\n")
        assert "TL004" not in codes(report)


class TestTL005MutableDefaults:
    def test_fires_on_list_dict_and_constructor_defaults(self):
        report = lint_source("def a(x=[]):\n    return x\n\n"
                             "def b(x={}):\n    return x\n\n"
                             "def c(*, x=set()):\n    return x\n")
        assert codes(report) == ["TL005", "TL005", "TL005"]

    def test_silent_on_none_and_immutable_defaults(self):
        report = lint_source("def a(x=None, y=(), z='label', n=3):\n"
                             "    return x, y, z, n\n")
        assert "TL005" not in codes(report)


class TestTL006BroadExcept:
    def test_fires_on_bare_broad_and_tuple_forms(self):
        report = lint_source(
            "def swallow(op):\n"
            "    try:\n"
            "        op()\n"
            "    except Exception:\n"
            "        pass\n"
            "    try:\n"
            "        op()\n"
            "    except (ValueError, BaseException):\n"
            "        return None\n"
            "    try:\n"
            "        op()\n"
            "    except:\n"
            "        return None\n")
        assert codes(report) == ["TL006", "TL006", "TL006"]

    def test_silent_on_narrow_or_reraising_handlers(self):
        report = lint_source(
            "def tolerate(op):\n"
            "    try:\n"
            "        op()\n"
            "    except ValueError:\n"
            "        return None\n"
            "    try:\n"
            "        op()\n"
            "    except Exception as error:\n"
            "        raise RuntimeError('context') from error\n")
        assert "TL006" not in codes(report)


class TestTL007KernelSlots:
    def test_fires_on_dictful_simkernel_class(self):
        report = lint_source("class Payload:\n"
                             "    def __init__(self, t: int) -> None:\n"
                             "        self.t = t\n",
                             path=SIMKERNEL)
        assert codes(report) == ["TL007"]

    def test_silent_on_slots_exceptions_and_slotted_dataclass(self):
        report = lint_source(
            "from dataclasses import dataclass\n"
            "from repro.errors import SimulationError\n\n\n"
            "class Payload:\n"
            "    __slots__ = ('t',)\n\n"
            "    def __init__(self, t):\n"
            "        self.t = t\n\n\n"
            "class QueueError(SimulationError):\n"
            "    pass\n\n\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class Marker:\n"
            "    t: int\n",
            path=SIMKERNEL)
        assert "TL007" not in codes(report)

    def test_out_of_scope_package_is_not_checked(self):
        report = lint_source("class Row:\n"
                             "    def __init__(self):\n"
                             "        self.x = 1\n",
                             path=STATS)
        assert "TL007" not in codes(report)


class TestTL008PublicAnnotations:
    def test_fires_on_missing_param_and_return(self):
        report = lint_source("def shuffle(items, seed: int):\n"
                             "    return items\n",
                             path=CORE)
        assert codes(report) == ["TL008"]
        assert "items" in report.violations[0].message
        assert "return" in report.violations[0].message

    def test_silent_on_fully_annotated_and_private(self):
        report = lint_source(
            "from typing import List\n\n\n"
            "def shuffle(items: List[int], seed: int) -> List[int]:\n"
            "    def swap(i, j):\n"  # nested closures exempt
            "        items[i], items[j] = items[j], items[i]\n"
            "    return items\n\n\n"
            "def _helper(anything):\n"  # private exempt
            "    return anything\n\n\n"
            "class _Internal:\n"  # private class exempt
            "    def run(self, x):\n"
            "        return x\n",
            path=CORE)
        assert "TL008" not in codes(report)

    def test_out_of_scope_package_is_not_checked(self):
        report = lint_source("def loose(x):\n    return x\n", path=STATS)
        assert "TL008" not in codes(report)


class TestTL009ChaosNeverSleeps:
    def test_fires_on_time_sleep(self):
        report = lint_source("import time\n\n"
                             "def wait():\n"
                             "    time.sleep(5)\n", path=CHAOS)
        assert "TL009" in codes(report)

    def test_fires_on_bare_sleep(self):
        report = lint_source("from time import sleep\n\n"
                             "def wait():\n"
                             "    sleep(1)\n", path=CHAOS)
        assert "TL009" in codes(report)

    def test_fires_on_unbounded_while_retry(self):
        report = lint_source("def retry(op):\n"
                             "    while True:\n"
                             "        op()\n", path=CHAOS)
        assert codes(report) == ["TL009"]

    def test_bounded_for_loop_and_breaking_while_pass(self):
        report = lint_source(
            "def retry(policy, op):\n"
            "    for attempt in range(policy.max_retries):\n"
            "        op()\n"
            "    while True:\n"
            "        if op():\n"
            "            break\n", path=CHAOS)
        assert "TL009" not in codes(report)

    def test_out_of_scope_package_is_not_checked(self):
        report = lint_source("import time\n\n"
                             "def wait():\n"
                             "    time.sleep(5)\n", path=STATS)
        assert "TL009" not in codes(report)


OBS = "src/repro/obs/fixture.py"


class TestTL014ObservabilityIsPassive:
    def test_fires_on_time_import(self):
        # The *import* is banned, before any call happens (TL001 only
        # flags call sites).
        report = lint_source("import time\n", path=OBS)
        assert codes(report) == ["TL014"]

    def test_fires_on_from_import_of_clock(self):
        report = lint_source("from time import perf_counter\n", path=OBS)
        assert "TL014" in codes(report)

    def test_fires_on_rng_imports(self):
        assert "TL014" in codes(lint_source(
            "from repro.rng import RngRegistry\n", path=OBS))
        assert "TL014" in codes(lint_source(
            "import numpy.random\n", path=OBS))
        assert "TL014" in codes(lint_source(
            "import random\n", path=OBS))
        assert "TL014" in codes(lint_source(
            "import datetime\n", path=OBS))

    def test_fires_on_draw_method_calls(self):
        report = lint_source("def sample(rng):\n"
                             "    return rng.integers(10)\n", path=OBS)
        assert "TL014" in codes(report)
        report = lint_source("def derive(registry):\n"
                             "    return registry.stream('obs')\n",
                             path=OBS)
        assert "TL014" in codes(report)

    def test_silent_on_passive_code(self):
        report = lint_source(
            "import hashlib\n"
            "import json\n\n"
            "def render(records):\n"
            "    text = json.dumps(records, sort_keys=True)\n"
            "    return hashlib.sha256(text.encode()).hexdigest()\n",
            path=OBS)
        assert "TL014" not in codes(report)

    def test_out_of_scope_package_is_not_checked(self):
        report = lint_source("import datetime\n", path=STATS)
        assert "TL014" not in codes(report)

    def test_real_obs_package_is_clean(self):
        report = lint_paths([REPO / "src" / "repro" / "obs"],
                            rules=get_rules(["TL014"]))
        assert codes(report) == []


class TestSuppression:
    BAD_LINE = "def stamp():\n    import time\n    return time.time()"

    def test_line_suppression(self):
        source = self.BAD_LINE + "  # totolint: disable=TL001\n"
        assert lint_source(source).clean

    def test_line_suppression_with_list_and_all(self):
        listed = self.BAD_LINE + "  # totolint: disable=TL004,TL001\n"
        everything = self.BAD_LINE + "  # totolint: disable=all\n"
        # TL001 is suppressed; the TL004 in the list never fires here,
        # which the TL013 audit flags as a stale suppression code.
        assert codes(lint_source(listed)) == ["TL013"]
        assert lint_source(listed, rules=get_rules(["TL001"])).clean
        assert lint_source(everything).clean

    def test_file_suppression(self):
        source = ("# totolint: disable-file=TL001\n" + self.BAD_LINE + "\n")
        assert lint_source(source).clean

    def test_wrong_code_does_not_suppress(self):
        source = self.BAD_LINE + "  # totolint: disable=TL002\n"
        # TL001 still fires, and the useless TL002 suppression is TL013
        # (which sorts first: the comment anchors at column 0).
        assert codes(lint_source(source)) == ["TL013", "TL001"]
        assert codes(lint_source(
            source, rules=get_rules(["TL001"]))) == ["TL001"]


class TestEngine:
    def test_module_name_anchors_at_repro(self):
        assert module_name_for(
            Path("src/repro/simkernel/event.py")) == "repro.simkernel.event"
        assert module_name_for(
            Path("src/repro/core/__init__.py")) == "repro.core"
        assert module_name_for(Path("scratch/snippet.py")) == "snippet"

    def test_rule_selection(self):
        assert [rule.code for rule in get_rules(["tl006", "TL001"])] \
            == ["TL001", "TL006"]
        with pytest.raises(LintEngineError):
            get_rules(["TL999"])

    def test_catalogue_is_complete(self):
        assert [rule.code for rule in all_rules()] == [
            f"TL{n:03d}" for n in range(1, 15)] + ["TL022", "TL034"]
        for rule in all_rules():
            assert rule.title and rule.rationale

    def test_unparseable_file_is_internal_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(LintEngineError):
            lint_paths([bad])

    def test_violations_sorted_and_json_stable(self):
        report = lint_source("import time\n\n"
                             "def b(x=[]):\n"
                             "    return time.time()\n")
        assert codes(report) == ["TL005", "TL001"]  # line order
        document = json.loads(format_json(report))
        assert document["version"] == 1
        assert document["tool"] == "totolint"
        assert document["files_checked"] == 1
        assert document["violation_count"] == 2
        assert document["counts"] == {"TL001": 1, "TL005": 1}
        assert set(document["violations"][0]) \
            == {"rule", "path", "line", "col", "message"}
        assert document["program"] == {"registry_size": 0,
                                       "hot_functions": 0}

    def test_text_report_summarizes(self):
        report = lint_source("def a(x=[]):\n    return x\n")
        text = format_text(report)
        assert "TL005" in text
        assert "1 violations (TL005 x1)" in text
        clean = format_text(LintReport(violations=(), files_checked=3))
        assert "3 files checked, no violations" in clean
        assert "program graph" not in clean
        graphed = format_text(LintReport(
            violations=(), files_checked=3, program_built=True,
            registry_size=13, hot_functions=256))
        assert graphed.endswith("program graph: 256 hot functions, "
                                "13 registry substreams")


class TestExitCodes:
    """0 clean / 1 violations / 2 internal error — the CI contract."""

    def run(self, **kwargs):
        out, err = StringIO(), StringIO()
        code = run_lint(stdout=out, stderr=err, **kwargs)
        return code, out.getvalue(), err.getvalue()

    def test_clean_file_exits_zero(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("def fine(x: int) -> int:\n    return x\n")
        code, out, _ = self.run(paths=[good])
        assert code == EXIT_CLEAN
        assert "no violations" in out

    def test_violations_exit_one_in_both_formats(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def bad(x=[]):\n    return x\n")
        code, out, _ = self.run(paths=[bad])
        assert code == EXIT_VIOLATIONS
        code, out, _ = self.run(paths=[bad], output_format="json")
        assert code == EXIT_VIOLATIONS
        assert json.loads(out)["violation_count"] == 1

    def test_missing_path_and_unknown_rule_exit_two(self, tmp_path):
        code, _, err = self.run(paths=[tmp_path / "nope.py"])
        assert code == EXIT_INTERNAL_ERROR
        assert "internal error" in err
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        code, _, err = self.run(paths=[good], rules="TL999")
        assert code == EXIT_INTERNAL_ERROR
        assert "unknown rule" in err

    def test_list_rules_exits_zero(self):
        code, out, _ = self.run(paths=[], list_rules=True)
        assert code == EXIT_CLEAN
        assert [line.split()[0] for line in out.splitlines()] \
            == [rule.code for rule in all_rules()]

    def test_cli_subcommand_wires_through(self, tmp_path):
        from repro.cli import main
        bad = tmp_path / "bad.py"
        bad.write_text("def bad(x=[]):\n    return x\n")
        assert main(["lint", str(bad)]) == EXIT_VIOLATIONS

    def test_tools_wrapper_runs_uninstalled(self, tmp_path):
        """tools/totolint.py works from a bare checkout (CI's view)."""
        bad = tmp_path / "bad.py"
        bad.write_text("def bad(x=[]):\n    return x\n")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "totolint.py"),
             str(bad)],
            capture_output=True, text=True, cwd=str(tmp_path))
        assert proc.returncode == EXIT_VIOLATIONS
        assert "TL005" in proc.stdout


class TestRepoIsClean:
    """The determinism contract holds at HEAD, with no suppressions
    hiding real problems outside the analysis package."""

    def test_whole_package_lints_clean(self, repo_lint_report):
        # Every rule gates hard with no baseline; the report is the one
        # full-catalogue run shared by the repo-state tests (conftest).
        report = repo_lint_report
        assert report.files_checked > 80
        assert report.violations == (), format_text(report)

    def test_suppressions_are_rare_and_justified(self):
        suppressions = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            # The analysis package itself documents (and once uses) the
            # syntax; the linter's internal-error catch-all in cli.py is
            # the one sanctioned broad except. Everywhere else,
            # suppressions need review here before they land.
            if "analysis" in path.parts:
                continue
            for line in path.read_text().splitlines():
                if "totolint: disable" in line:
                    suppressions.append(
                        (str(path.relative_to(REPO)),
                         line.split("totolint: ")[1].strip()))
        assert suppressions == [], suppressions
