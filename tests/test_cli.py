import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourovern
from fourovern.cli import cli_main


class TestDecompose:
    def test_solved(self, capsys):
        assert cli_main(["decompose", "7"]) == 0
        out = capsys.readouterr().out
        assert "4/7 = 1/3 + 1/6 + 1/14" in out
        assert "Mod4Is3" in out

    def test_hard_flag_shown(self, capsys):
        assert cli_main(["decompose", "73"]) == 0
        assert "hard: true" in capsys.readouterr().out

    def test_no_distinct_solution_exits_one(self, capsys):
        assert cli_main(["decompose", "2"]) == 1
        out = capsys.readouterr().out
        assert "proof of non-existence" in out
        assert "4/2 = 1/1 + 1/2 + 1/2" in out

    def test_json_output(self, capsys):
        assert cli_main(["decompose", "13", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["method"] == "Prime13Mod24"
        assert (obj["x1"], obj["x2"], obj["x3"]) == (4, 26, 52)

    def test_json_no_distinct(self, capsys):
        assert cli_main(["decompose", "2", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["status"] == "NoDistinctSolution"

    def test_k_bound_changes_attribution(self, capsys):
        assert cli_main(["decompose", "73", "--k-bound", "3", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["method"] == "Oracle"
        assert (obj["x1"], obj["x2"], obj["x3"]) == (20, 210, 30660)

    def test_overflow_exits_three(self, capsys):
        assert cli_main(["decompose", str(2**66)]) == 3
        assert "128-bit" in capsys.readouterr().err

    def test_bad_n_exits_two(self, capsys):
        assert cli_main(["decompose", "1"]) == 2


class TestTwoTerm:
    def test_solved(self, capsys):
        assert cli_main(["two-term", "3", "5"]) == 0
        assert "3/5 = 1/2 + 1/10" in capsys.readouterr().out

    def test_prime_non_existence(self, capsys):
        assert cli_main(["two-term", "3", "7"]) == 0
        assert "no distinct two-term decomposition" in capsys.readouterr().out

    def test_composite_inapplicable(self, capsys):
        assert cli_main(["two-term", "5", "8"]) == 0
        assert "does not apply" in capsys.readouterr().out


class TestOracle:
    def test_first_default(self, capsys):
        assert cli_main(["oracle", "4", "73"]) == 0
        assert "4/73 = 1/20 + 1/210 + 1/30660" in capsys.readouterr().out

    def test_allow_repeats_all(self, capsys):
        assert cli_main(["oracle", "4", "2", "--allow-repeats", "--all"]) == 0
        assert "4/2 = 1/1 + 1/2 + 1/2" in capsys.readouterr().out

    def test_distinct_none(self, capsys):
        assert cli_main(["oracle", "4", "2"]) == 0
        assert "no distinct three-term decomposition" in capsys.readouterr().out

    def test_count(self, capsys):
        assert cli_main(["oracle", "4", "2", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_all_with_limit(self, capsys):
        assert cli_main(["oracle", "4", "24", "--all", "--limit", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3


class TestSweep:
    def test_report_row_count(self, tmp_path, capsys):
        report = tmp_path / "out.csv"
        assert cli_main(["sweep", "3", "30", "--report", str(report)]) == 0
        rows = report.read_text().splitlines()
        assert len(rows) == 28
        assert rows[4] == "7,Mod4Is3,3,6,14,Solved,false"
        assert "28 records" in capsys.readouterr().out

    def test_stdout_csv(self, capsys):
        assert cli_main(["sweep", "3", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("3,Oracle,1,4,12")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_report_file(self, tmp_path, capsys, fmt):
        assert cli_main(["sweep", "3", "3000", "--format", fmt]) == 0
        stdout = capsys.readouterr().out.encode()
        report = tmp_path / f"out.{fmt}"
        assert cli_main(["sweep", "3", "3000", "--format", fmt, "--report", str(report)]) == 0
        assert stdout == report.read_bytes()

    def test_json_report(self, tmp_path):
        report = tmp_path / "out.json"
        assert cli_main(["sweep", "3", "12", "--format", "json", "--report", str(report)]) == 0
        objs = json.loads(report.read_text())
        assert [o["n"] for o in objs] == list(range(3, 13))

    def test_checkpoint_flag(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        assert cli_main(["sweep", "3", "20", "--checkpoint", str(ck)]) == 0
        assert len(ck.read_text().splitlines()) == 18

    def test_usage_error_start_after_end(self, capsys):
        assert cli_main(["sweep", "9", "3"]) == 2

    def test_unwritable_report_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "missing" / "out.csv"
        assert cli_main(["sweep", "3", "10", "--report", str(bad)]) == 3
        assert "io error" in capsys.readouterr().err


class TestStats:
    def test_histogram(self, tmp_path, capsys):
        report = tmp_path / "out.csv"
        cli_main(["sweep", "3", "120", "--report", str(report)])
        capsys.readouterr()
        assert cli_main(["stats", str(report)]) == 0
        out = capsys.readouterr().out
        assert "records: 118" in out
        assert "Even" in out and "method histogram" in out
        assert "hard: 2" in out  # 73 and 97

    def test_missing_report_exits_three(self, tmp_path):
        assert cli_main(["stats", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "7,Mod4Is3,3,6,14,Solved,maybe\n",                     # hard cell not a bool
            '[{"n": 7, "x1": 3, "x2": 6, "x3": 14, "status": "Solved", "hard": false}]',
            "[7]",                                                   # element not an object
        ],
        ids=["csv-hard-maybe", "json-no-method", "json-not-object"],
    )
    def test_malformed_report_exits_two(self, tmp_path, capsys, text):
        report = tmp_path / "bad"
        report.write_text(text)
        assert cli_main(["stats", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and " 1 is not a record" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_args(self, capsys):
        assert cli_main(["decompose"]) == 2

    def test_no_args(self, capsys):
        assert cli_main([]) == 2


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["fourovern", "fourovern.cli"])
    def test_runs_without_warnings(self, module):
        src = str(Path(fourovern.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", module, "decompose", "7"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("4/7 = 1/3 + 1/6 + 1/14\n")
