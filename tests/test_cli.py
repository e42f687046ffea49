"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.fabric.cluster import BACKENDS

REPO = Path(__file__).resolve().parent.parent

#: ``repro run --density 110 --hours 2`` once per orchestrator backend,
#: in one interpreter; exits non-zero if a run fails or scipy loads.
_BACKEND_PROBE = """\
import sys
from repro.cli import main
from repro.fabric.cluster import BACKENDS
for name in BACKENDS:
    code = main(["run", "--density", "110", "--hours", "2",
                 "--backend", name])
    assert code == 0, (name, code)
assert "scipy" not in sys.modules, "the simulation path imported scipy"
"""


class TestSimulationPathImports:
    def test_setup_and_run_never_import_scipy(self):
        """scipy serves only the statistics helpers and the validation
        studies; training and a simulated run must not pay its import.

        The probe runs the CLI under every backend in
        :data:`~repro.fabric.cluster.BACKENDS`. Two hash seeds must
        print the same bytes: a run is a function of its arguments.
        """
        outputs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _BACKEND_PROBE],
                capture_output=True, text=True,
                env={"PYTHONPATH": str(REPO / "src"),
                     "PYTHONHASHSEED": hash_seed}, check=False)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.count("reserved cores") == len(BACKENDS)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_density_defaults(self):
        args = build_parser().parse_args(["density-study"])
        assert args.days == 6.0
        assert args.densities == "100,110,120,140"

    def test_incident_defaults_match_paper_story(self):
        args = build_parser().parse_args(["incident"])
        assert args.slo == "BC_Gen5_6"
        assert args.growth_gb == 1300.0


class TestCommands:
    def test_quickstart_runs(self, capsys):
        exit_code = main(["quickstart", "--hours", "2", "--density",
                          "110"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "reserved cores" in out
        assert "adjusted rev." in out

    def test_demographics_runs(self, capsys):
        assert main(["demographics"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3a" in out
        assert "Figure 6" in out

    def test_train_writes_xml(self, tmp_path, capsys):
        out_file = tmp_path / "models.xml"
        exit_code = main(["train", "--days", "7", "--corpus", "120",
                          "--seed", "777", "--out", str(out_file)])
        assert exit_code == 0
        xml = out_file.read_text()
        assert xml.startswith("<TotoModels")
        assert "PopulationModels" in xml

    def test_train_stdout(self, capsys):
        assert main(["train", "--days", "7", "--corpus", "120",
                     "--seed", "777"]) == 0
        assert "<TotoModels" in capsys.readouterr().out

    def test_density_study_small(self, capsys):
        exit_code = main(["density-study", "--days", "0.25",
                          "--densities", "100,140", "--no-maintenance"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 14" in out

    def test_densities_parser_adds_baseline(self):
        from repro.cli import _parse_densities
        assert _parse_densities("120,140") == (1.0, 1.2, 1.4)
        assert _parse_densities("100,110") == (1.0, 1.1)

    def test_repeatability_small(self, capsys):
        exit_code = main(["repeatability", "--repeats", "2", "--hours",
                          "2"])
        assert exit_code == 0
        assert "Wilcoxon" in capsys.readouterr().out
