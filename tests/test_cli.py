import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fourovern
import fourovern.sweep as sweep_mod
from fourovern.cli import cli_main
from fourovern.sweep import SweepConfig, emit_report, record_to_obj, sweep_range


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
        ck = tmp_path / "ck.csv"
        assert cli_main(["sweep", "3", "20", "--checkpoint", str(ck)]) == 0
        assert len(ck.read_text().splitlines()) == 18

    def test_usage_error_start_after_end(self, capsys):
        assert cli_main(["sweep", "9", "3"]) == 2

    def test_unwritable_report_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "missing" / "out.csv"
        assert cli_main(["sweep", "3", "10", "--report", str(bad)]) == 3
        assert "io error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def reference_3000(tmp_path_factory):
    """emit_report(sweep_range(...)) bytes of [3, 3000] per format, and the
    bytes of a fresh checkpoint of that range."""
    d = tmp_path_factory.mktemp("reference")
    ck = d / "ck.csv"
    records = sweep_range(SweepConfig(3, 3000, checkpoint_path=ck))
    out = {"checkpoint": ck.read_bytes()}
    for fmt in ("csv", "json"):
        emit_report(records, fmt, d / f"r.{fmt}")
        out[fmt] = (d / f"r.{fmt}").read_bytes()
    return out


class TestStreamedSweep:
    """The CLI streams rows into the report; its bytes are the library's."""

    @pytest.mark.parametrize(
        "resume", [False, True, "json-lines"], ids=["fresh", "resumed", "json-lines"]
    )
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_bytes(self, tmp_path, capsys, reference_3000, fmt, workers, resume):
        ck, report = tmp_path / "ck", tmp_path / f"out.{fmt}"
        if resume == "json-lines":  # a checkpoint in the JSON-lines form of earlier versions
            ck.write_text("".join(json.dumps(record_to_obj(r), separators=(",", ":")) + "\n"
                                  for r in sweep_range(SweepConfig(3, 1000))))
        elif resume:  # a checkpoint cut mid-line, as a kill leaves it
            ck.write_bytes(reference_3000["checkpoint"][:70_001])
        argv = ["sweep", "3", "3000", "--format", fmt, "--workers", workers,
                "--checkpoint", str(ck), "--report", str(report)]
        assert cli_main(argv) == 0
        assert report.read_bytes() == reference_3000[fmt]
        # a checkpoint holds the CSV report's bytes, whatever the report format
        assert ck.read_bytes() == reference_3000["checkpoint"] == reference_3000["csv"]
        assert "2998 records" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([ck.name, report.name])

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
    def test_each_row_formatted_once(self, tmp_path, capsys, monkeypatch, reference_3000,
                                     resume):
        # one _csv_line call per row: for a new row the line that both the
        # checkpoint and the report write, for a resumed row its check
        ck, report = tmp_path / "ck", tmp_path / "out.csv"
        if resume:
            assert cli_main(["sweep", "3", "1500", "--checkpoint", str(ck)]) == 0
        calls = []
        real = sweep_mod._csv_line

        def counted(row):
            calls.append(row[0])
            return real(row)

        monkeypatch.setattr(sweep_mod, "_csv_line", counted)
        argv = ["sweep", "3", "3000", "--checkpoint", str(ck), "--report", str(report)]
        assert cli_main(argv) == 0
        assert len(calls) == 2998 and sorted(calls) == list(range(3, 3001))
        assert report.read_bytes() == ck.read_bytes() == reference_3000["csv"]
        assert "2998 records" in capsys.readouterr().out

    @pytest.mark.parametrize("cells", [("Bogus", None), (None, "Bogus"), (None, "solved")],
                             ids=["method-Bogus", "status-Bogus", "status-solved"])
    def test_bad_tag_cuts_checkpoint(self, tmp_path, capsys, reference_3000, cells):
        # line 1500 (n = 1502) is a record solve can emit but for one tag: a
        # Solved row with another method, or an Error row with another status;
        # the resume cuts it and everything after it, like a torn tail
        method, status = cells
        lines = reference_3000["checkpoint"].decode().splitlines(keepends=True)
        n, _, x1, x2, x3, _, hard = lines[1499].split(",")
        assert n == "1502"
        if method:
            lines[1499] = ",".join([n, method, x1, x2, x3, "Solved", hard])
        else:
            lines[1499] = ",".join([n, "", "", "", "", status, hard])
        ck, report = tmp_path / "ck", tmp_path / "out.csv"
        ck.write_text("".join(lines))
        argv = ["sweep", "3", "3000", "--checkpoint", str(ck), "--report", str(report)]
        assert cli_main(argv) == 0
        assert report.read_bytes() == reference_3000["csv"]
        assert ck.read_bytes() == reference_3000["checkpoint"]
        assert "2998 records" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_sweep_keeps_previous_report(self, tmp_path, monkeypatch, workers):
        real_solve = sweep_mod.solve

        def failing(n, *args):
            if n == 1500:
                raise RuntimeError("solve failed at n = 1500")
            return real_solve(n, *args)

        monkeypatch.setattr(sweep_mod, "solve", failing)
        report = tmp_path / "out.csv"
        report.write_text("previous contents\n")
        with pytest.raises(RuntimeError, match="n = 1500"):
            cli_main(["sweep", "3", "3000", "--workers", workers, "--report", str(report)])
        assert report.read_text() == "previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestCheckpointRun:
    """A checkpoint is resumed only as the report of the sweep's first rows."""

    @pytest.fixture
    def ck_200(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert cli_main(["sweep", "3", "200", "--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        return ck

    def test_other_start_exits_two_untouched(self, tmp_path, capsys, ck_200):
        before = ck_200.read_bytes()
        report = tmp_path / "out.csv"
        argv = ["sweep", "50", "300", "--checkpoint", str(ck_200), "--report", str(report)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: checkpoint ")
        assert ck_200.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [ck_200.name]

    def test_shorter_range_keeps_longer_checkpoint(self, tmp_path, capsys, ck_200):
        before = ck_200.read_bytes()
        report, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        argv = ["sweep", "3", "100", "--checkpoint", str(ck_200), "--report", str(report)]
        assert cli_main(argv) == 0
        assert cli_main(["sweep", "3", "100", "--report", str(fresh)]) == 0
        assert report.read_bytes() == fresh.read_bytes()
        assert before.startswith(fresh.read_bytes())
        assert ck_200.read_bytes() == before


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

    def test_checkpoint_reads_like_its_report(self, tmp_path, capsys):
        ck, report = tmp_path / "ck", tmp_path / "out.csv"
        argv = ["sweep", "3", "120", "--checkpoint", str(ck), "--report", str(report)]
        assert cli_main(argv) == 0
        capsys.readouterr()
        outputs = []
        for path in (ck, report):
            assert cli_main(["stats", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and "records: 118" in outputs[0]

    def test_missing_report_exits_three(self, tmp_path):
        assert cli_main(["stats", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "7,Mod4Is3,3,6,14,Solved,maybe\n",                     # hard cell not a bool
            '[{"n": 7, "x1": 3, "x2": 6, "x3": 14, "status": "Solved", "hard": false}]',
            "[7]",                                                   # element not an object
            '[{"n": 7, "method": "Mod4Is3", "x1": 3, "x2": 6, "x3": 14, "status": "Solved",'
            ' "hard": "false"}]',
            '[{"n": 7, "method": "Mod4Is3", "x1": "3", "x2": 6, "x3": 14, "status": "Solved",'
            ' "hard": false}]',
            '[{"n": 7, "method": "Mod4Is3", "x1": 3, "x2": 6.5, "x3": 14, "status": "Solved",'
            ' "hard": false}]',
            '[{"n": 7, "method": "Mod4Is3", "x1": 3, "x2": 6, "x3": null, "status": "Solved",'
            ' "hard": false}]',
            "7,Mod4Is3,3,6,,Solved,false\n",                        # Solved without x3
            '[{"n": -7, "method": null, "x1": 3, "x2": 6, "x3": 14, "status": "Solved",'
            ' "hard": false}]',
            "7,Mod4Is3,3,6,15,Solved,false\n",                      # 4/7 != 1/3 + 1/6 + 1/15
            "7,,,,,NoDistinctSolution,false\n",                      # no method tag
            # a record's row spelled otherwise than a report writes it
            " 7,Mod4Is3,3,6,14,Solved,false\n",
            "7,Mod4Is3,+3,6,14,Solved,false\n",
            "07,Mod4Is3,3,6,14,Solved,false\n",
            "7,Mod4Is3,3,6,1_4,Solved,false\n",
            "7,Mod4Is3,3,6,14,Solved,false\r\n",
            "7,Mod4Is3,3,6,14,Solved,false",
            "\n7,Mod4Is3,3,6,14,Solved,false\n",
            # a tag that is not one solve writes, in a record otherwise well formed
            "7,Bogus,3,6,14,Solved,false\n",
            "7,,,,,Bogus,false\n",
            '[{"n": 7, "method": ["Mod4Is3"], "x1": 3, "x2": 6, "x3": 14, "status": "Solved",'
            ' "hard": false}]',
            '[{"n": 7, "method": null, "x1": null, "x2": null, "x3": null, "status": 1,'
            ' "hard": false}]',
        ],
        ids=[
            "csv-hard-maybe", "json-no-method", "json-not-object", "json-hard-string",
            "json-x1-string", "json-x2-float", "json-solved-x3-null", "csv-solved-no-x3",
            "json-negative-n-null-method", "csv-wrong-sum", "csv-nds-no-method",
            "csv-space-n", "csv-plus-x1", "csv-zero-padded-n", "csv-underscore-x3",
            "csv-crlf", "csv-no-newline", "csv-blank-line", "csv-method-bogus",
            "csv-status-bogus", "json-method-list", "json-status-int",
        ],
    )
    def test_malformed_report_exits_two(self, tmp_path, capsys, text):
        report = tmp_path / "bad"
        report.write_text(text)
        assert cli_main(["stats", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and " 1 is not a record" in err

    @pytest.mark.parametrize("form", ["csv-repeat", "csv-descending", "json-repeat"])
    def test_unordered_report_exits_two(self, tmp_path, capsys, form):
        seven, eight = (sweep_mod._row(sweep_mod.solve(n)) for n in (7, 8))
        rows = [eight, seven] if form == "csv-descending" else [seven, seven]
        report = tmp_path / "bad"
        if form == "json-repeat":
            report.write_text(json.dumps([dict(zip(sweep_mod.CSV_COLUMNS, r)) for r in rows]))
        else:
            report.write_text("".join(map(sweep_mod._csv_line, rows)))
        assert cli_main(["stats", str(report)]) == 2
        err = capsys.readouterr().err
        kind = "element" if form == "json-repeat" else "row"
        assert err.startswith("usage error: ") and f" {kind} 2 has n=7, not above" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "3", "10", "--k-bound", "3"], ["oracle", "4", "73", "--first"]],
        ids=["sweep-k-bound", "oracle-first"],
    )
    def test_removed_options(self, capsys, argv):
        assert cli_main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_args(self, capsys):
        assert cli_main(["decompose"]) == 2

    @pytest.mark.parametrize("n", ["4", "73"])
    def test_k_bound_below_one(self, capsys, n):
        assert cli_main(["decompose", n, "--k-bound", "0"]) == 2
        assert capsys.readouterr().err == "usage error: --k-bound must be >= 1, got 0\n"

    def test_no_args(self, capsys):
        assert cli_main([]) == 2

    @pytest.mark.parametrize("argv", [[], ["--count"]], ids=["first", "count"])
    def test_oracle_limit_needs_all(self, capsys, argv):
        assert cli_main(["oracle", "4", "24", "--limit", "3", *argv]) == 2
        assert capsys.readouterr() == ("", "usage error: --limit needs --all\n")


def readme_cli_commands():
    """The argv of each `fourovern ...` line of README's CLI block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("fourovern ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # in order, in one directory, so later lines read the files earlier ones write
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert len(commands) >= 10
    for argv in commands:
        assert cli_main(argv) == (1 if argv == ["decompose", "2"] else 0), argv


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
