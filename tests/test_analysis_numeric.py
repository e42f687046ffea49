"""The merge-protocol rule (TL034) and the merge-order contract.

Fired/silent fixture pairs over fleet-package fixture paths, rule
selection by code, the repo-wide TL034-clean invariant, the repo's
merge registry, a seeded pairwise merge the static rule catches, and
Hypothesis properties pinning the permutation invariance the
registered helpers promise.
"""

import pathlib
import random
from io import StringIO

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import ProgramGraph, get_rules, lint_source
from repro.analysis.cli import EXIT_INTERNAL_ERROR, run_lint
from repro.analysis.rules import all_rules
from repro.experiments.fleet import (
    BackendClusterSummary,
    backend_digest,
    merge_backend_summaries,
)
from repro.fleet.summary import (
    ClusterSummary,
    FleetFrame,
    fleet_digest,
    merge_frames,
    merge_summaries,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Fixture path inside repro.fleet.
FLEET = "src/repro/fleet/example.py"

#: Sequential left-fold over these is 0.0; reversed it is 1.0 — float
#: addition's non-associativity made deterministic enough to test.
DIVERGENT = [1.0, 1e16, -1e16]


def codes(report):
    return [violation.rule for violation in report.violations]


def _summary(index, value, hours=2):
    """A hand-built ClusterSummary with spec-ordered zero-padded name."""
    frames = tuple(
        FleetFrame(hour_index=hour, reserved_cores=value + hour,
                   disk_gb=value * 2.0, active_databases=3,
                   redirects_cumulative=hour,
                   failover_count_cumulative=0)
        for hour in range(hours))
    return ClusterSummary(
        name=f"fleet-x-{index:04d}", seed=1000 + index, density=1.0,
        node_count=4, final_reserved_cores=value,
        final_disk_gb=value * 2.0, core_utilization=0.5,
        disk_utilization=0.25, creation_redirects=index,
        databases_created=10, active_databases=9, failover_count=0,
        failover_downtime_seconds=0.0, revenue_gross=value * 3.0,
        revenue_penalty=value / 7.0, revenue_adjusted=value * 2.9,
        penalized_databases=1, faults_injected=0,
        events_executed=100 + index, frames=frames)


def _backend_summary(index, value):
    """A hand-built BackendClusterSummary, spec-ordered by name."""
    return BackendClusterSummary(
        name=f"fleet-x-{index:04d}", seed=1000 + index, density=1.0,
        reserved_cores=value, disk_gb=value * 2.0,
        databases_created=10, active_databases=9,
        creation_redirects=index, failover_count=index % 3,
        failover_cores=value / 7.0, revenue_adjusted=value * 2.9,
        events_executed=100 + index)


class TestNumericTierRegistration:
    def test_merge_rule_registered_as_an_error(self):
        # Every rule is a hard gate: registering it makes it an error.
        assert "TL034" in {rule.code for rule in all_rules()}


class TestTL034:
    def test_reversed_fold_in_registered_merge_fires(self):
        report = lint_source(
            "# totolint: merge-fn\n"
            "def merge_totals(parts):\n"
            "    total = 0.0\n"
            "    for part in reversed(parts):\n"
            "        total += part\n"
            "    return total\n",
            path=FLEET, rules=get_rules(["TL034"]))
        assert codes(report) == ["TL034"]
        assert "reversed" in report.violations[0].message

    def test_reduce_and_input_resort_fire(self):
        report = lint_source(
            "from functools import reduce\n"
            "import operator\n"
            "# totolint: merge-fn\n"
            "def merge_totals(parts):\n"
            "    return reduce(operator.add, sorted(parts))\n",
            path=FLEET, rules=get_rules(["TL034"]))
        assert sorted(codes(report)) == ["TL034", "TL034"]

    def test_numpy_reduction_in_registered_merge_fires(self):
        report = lint_source(
            "import numpy as np\n"
            "# totolint: merge-fn\n"
            "def merge_totals(parts):\n"
            "    return float(np.sum(parts))\n",
            path=FLEET, rules=get_rules(["TL034"]))
        assert codes(report) == ["TL034"]

    def test_unregistered_kpi_accumulator_fires(self):
        report = lint_source(
            "from typing import Sequence\n"
            "def roll_up(summaries: Sequence[ClusterSummary]):\n"
            "    total = 0.0\n"
            "    for summary in summaries:\n"
            "        total += summary.revenue_adjusted\n"
            "    return total\n",
            path=FLEET, rules=get_rules(["TL034"]))
        assert codes(report) == ["TL034"]
        assert "merge-fn" in report.violations[0].message

    def test_registered_left_fold_is_the_sanctioned_shape(self):
        report = lint_source(
            "from typing import Sequence\n"
            "# totolint: merge-fn\n"
            "def merge_kpis(summaries: Sequence[ClusterSummary]):\n"
            "    total = 0.0\n"
            "    for summary in summaries:\n"
            "        total += summary.revenue_adjusted\n"
            "    return total\n",
            path=FLEET, rules=get_rules(["TL034"]))
        assert codes(report) == []


class TestSelectIgnore:
    """Rule selection by code (``--rules``)."""

    def test_unknown_code_is_an_internal_error(self, tmp_path):
        # One unknown code fails the whole selection rather than
        # linting with the known remainder.
        agg = tmp_path / "agg.py"
        agg.write_text("def merge_totals(parts):\n    return sum(parts)\n")
        err = StringIO()
        exit_code = run_lint(paths=[agg], rules="TL034,TL035",
                             stdout=StringIO(), stderr=err)
        assert exit_code == EXIT_INTERNAL_ERROR
        assert "unknown rule 'TL035'" in err.getvalue()


class TestRepoNumericState:
    def test_repo_numeric_tier_is_clean_with_no_baseline(
            self, repo_lint_report):
        numeric = [v for v in repo_lint_report.violations
                   if v.rule == "TL034"]
        assert numeric == [], [
            f"{v.path}:{v.line} {v.rule} {v.message}" for v in numeric]

    def test_merge_registry_matches_the_annotated_helpers(self):
        registry = ProgramGraph.build([SRC]).merge_functions()
        qualnames = sorted(qualname for _, qualname in registry)
        assert qualnames == ["adjusted_revenue_report",
                             "merge_backend_summaries", "merge_frames",
                             "merge_summaries"]


def _bits(value):
    """Bit-exact fingerprint of a merge result: ``repr`` round-trips
    floats exactly and dataclass reprs include every field."""
    return repr(value)


def _left_fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


def _pairwise(values):
    if len(values) == 1:
        return values[0]
    mid = len(values) // 2
    return _pairwise(values[:mid]) + _pairwise(values[mid:])


class TestSeededPairwiseMerge:
    """One seeded bug: a tree-shaped (pairwise) merge changes float
    association, so it is exactly what TL034 bans statically.
    """

    PAIRWISE = ("# totolint: merge-fn\n"
                "def merge_totals(parts):\n"
                "    if len(parts) == 1:\n"
                "        return parts[0]\n"
                "    mid = len(parts) // 2\n"
                "    return (merge_totals(parts[:mid])\n"
                "            + merge_totals(parts[mid:]))\n")

    def test_static_rule_flags_the_tree_merge(self):
        report = lint_source(self.PAIRWISE, path=FLEET,
                             rules=get_rules(["TL034"]))
        assert codes(report) == ["TL034", "TL034"]
        assert "self-recursion" in report.violations[0].message


class TestMergeOrderProperty:
    """The invariant the registry exists to protect, stated directly:
    feeding spec order makes the merge independent of completion order.
    """

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(
        st.floats(min_value=-1e12, max_value=1e12,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_spec_ordered_merge_is_shard_permutation_invariant(
            self, values, seed):
        summaries = [_summary(index, value)
                     for index, value in enumerate(values)]
        shuffled = list(summaries)
        random.Random(seed).shuffle(shuffled)
        # What the parent does with completion-ordered worker results:
        # restore spec order (the zero-padded name), then fold.
        restored = sorted(shuffled, key=lambda summary: summary.name)
        assert _bits(merge_summaries(restored)) \
            == _bits(merge_summaries(summaries))
        assert _bits(merge_frames(restored)) \
            == _bits(merge_frames(summaries))
        assert fleet_digest(restored) == fleet_digest(summaries)

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(
        st.floats(min_value=-1e12, max_value=1e12,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(values=DIVERGENT, seed=0)
    def test_backend_merge_is_shard_permutation_invariant(
            self, values, seed):
        # The backend comparison's fold has the same contract as the
        # fleet merge: restore spec order, then the KPIs and the
        # per-backend digest match the serial fold bit for bit.
        summaries = [_backend_summary(index, value)
                     for index, value in enumerate(values)]
        shuffled = list(summaries)
        random.Random(seed).shuffle(shuffled)
        restored = sorted(shuffled, key=lambda summary: summary.name)
        kpis = merge_backend_summaries("k8s", restored)
        assert _bits(kpis) \
            == _bits(merge_backend_summaries("k8s", summaries))
        assert backend_digest(restored) == backend_digest(summaries)
        # ...and the fold is the sequential one, not merely a stable one.
        assert _bits(kpis.reserved_cores) == _bits(_left_fold(values))
        assert _bits(kpis.failover_cores) == _bits(_left_fold(
            [summary.failover_cores for summary in summaries]))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_pairwise_association_breaks_the_invariant(self, seed):
        # The counterexample the property would miss if the registered
        # helpers folded pairwise: association alone changes the bits.
        assert _left_fold(DIVERGENT) == 0.0
        assert _pairwise(DIVERGENT) == 1.0
        shuffled = list(DIVERGENT)
        random.Random(seed).shuffle(shuffled)
        assert _left_fold(sorted(shuffled)) \
            == _left_fold(sorted(DIVERGENT))
