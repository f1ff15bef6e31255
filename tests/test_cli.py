"""CLI behavior: exit codes, report schema, pipe composition, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from ramseykit.cli import main
from ramseykit.extremal import chi
from ramseykit.graphs import PatternGraph, decode, encode, mono_counts

from .helpers import resume_token

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.schema.json").read_text()
)


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ramseykit.cli"] + args,
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc


def validate(report: dict) -> None:
    jsonschema.validate(report, SCHEMA)


class TestChiCount:
    def test_pipe_composition_matches_in_process(self, tmp_path):
        chi_out = run_cli(["chi", "--a", "5", "--b", "4"])
        assert chi_out.returncode == 0
        count_out = run_cli(["count", "--pattern", "C5"], stdin_text=chi_out.stdout)
        assert count_out.returncode == 0
        report = json.loads(count_out.stdout)
        validate(report)
        red, blue = mono_counts(chi(5, 4), PatternGraph.cycle(5))
        assert report["result"] == {
            "pattern": "C5", "n": 9, "red": red, "blue": blue, "total": red + blue,
        }

    def test_chi_writes_kcol_file(self, tmp_path):
        out = tmp_path / "chi54.kcol"
        assert run_cli(["chi", "--a", "5", "--b", "4", "--out", str(out)]).returncode == 0
        assert decode(out.read_text()) == chi(5, 4)


class TestEncodeDecode:
    def test_round_trip(self):
        spec = json.dumps({"n": 4, "red_pairs": [[0, 1], [2, 3]]})
        enc = run_cli(["encode"], stdin_text=spec)
        assert enc.returncode == 0
        dec = run_cli(["decode"], stdin_text=enc.stdout)
        report = json.loads(dec.stdout)
        validate(report)
        assert report["result"]["red_pairs"] == [[0, 1], [2, 3]]

    def test_truncated_kcol_exits_2_with_offset(self):
        proc = run_cli(["decode"], stdin_text="10\nab1")  # needs 12 hex digits
        assert proc.returncode == 2
        assert "byte offset" in proc.stderr

    def test_unknown_flag_exits_2(self):
        proc = run_cli(["decode", "--bogus"])
        assert proc.returncode == 2


class TestSearchCommands:
    def test_mult_k3_on_k6(self):
        proc = run_cli(["mult", "--pattern", "K3", "--n", "6"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        validate(report)
        assert report["result"]["value"] == 2
        assert report["result"]["exact"] is True
        witness = decode(report["result"]["witness_kcol"])
        assert sum(mono_counts(witness, PatternGraph.complete(3))) == 2

    def test_budget_exhaustion_exits_3_with_partial_report(self):
        proc = run_cli(["mult", "--pattern", "P5", "--n", "7", "--budget-nodes", "50"])
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        validate(report)
        assert report["result"]["exact"] is False
        assert report["result"]["resume_token"]

    def test_resume_from_file(self, tmp_path):
        # by node 4710 the first leg has improved on the seed's 108 copies;
        # M(P5, 7) = 96, and a resume that loses that incumbent reports 108
        proc = run_cli(["mult", "--pattern", "P5", "--n", "7", "--budget-nodes", "4710"])
        assert proc.returncode == 3
        token = json.loads(proc.stdout)["result"]["resume_token"]
        tok_file = tmp_path / "resume.txt"
        tok_file.write_text(token + "\n")
        done = run_cli(["mult", "--pattern", "P5", "--n", "7", "--resume-from", str(tok_file)])
        assert done.returncode == 0
        result = json.loads(done.stdout)["result"]
        assert (result["value"], result["exact"]) == (96, True)
        assert sum(mono_counts(decode(result["witness_kcol"]), PatternGraph.path(5))) == 96

    @pytest.mark.parametrize("token,problem", [
        ("abc", "characters other than 0 and 1"),
        ("0192", "characters other than 0 and 1"),
        ("0" * 11, "more than the 10 edges of K_5"),
        ("1000", "must start with 0"),
    ])
    def test_bad_resume_token_exits_2(self, tmp_path, capsys, token, problem):
        self._assert_rejected(tmp_path, capsys, resume_token(pending=token), problem)

    @pytest.mark.parametrize("fields,problem", [
        ({"version": "ramsey-resume/1"}, "version 'ramsey-resume/1' is not 'ramsey-resume/2'"),
        ({"pattern": "K3"}, "for pattern=K3, not pattern=P4"),
        ({"n": "7"}, "for n=7, not n=5"),
        ({"witness": "0" * 11}, "witness has 11 bits, but K_5 has 10 edges"),
        ({"witness": "0" * 9 + "2"}, "witness '0000000002' holds characters other than 0 and 1"),
    ], ids=["version", "pattern", "n", "witness-length", "witness-bits"])
    def test_mismatched_resume_token_exits_2(self, tmp_path, capsys, fields, problem):
        self._assert_rejected(tmp_path, capsys, resume_token(**fields), problem)

    @staticmethod
    def _assert_rejected(tmp_path, capsys, token, problem):
        tok_file = tmp_path / "resume.txt"
        tok_file.write_text(token)
        out = tmp_path / "out.json"
        rc = main(["mult", "--pattern", "P4", "--n", "5", "--resume-from", str(tok_file),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--resume-from" in err and problem in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3", str((os.cpu_count() or 1) + 1), "two"])
    def test_threads_out_of_range_exits_2(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["mult", "--pattern", "P4", "--n", "5", "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("pattern,n", [("C5", "65"), ("K3", "65"), ("K3", "0")])
    def test_board_size_outside_cap_exits_2(self, capsys, tmp_path, pattern, n):
        # C5 at n = 65 used to reach the copy-mask enumeration and die there
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["mult", "--pattern", pattern, "--n", n, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument --n: must be between 1 and 64, got {n}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,flag", [
        (["mult", "--pattern", "P5", "--n", "7", "--budget-nodes", "-5"], "--budget-nodes"),
        (["mult", "--pattern", "P5", "--n", "7", "--budget-seconds", "-1"], "--budget-seconds"),
        (["threshold", "--pattern", "P3", "--budget-nodes", "-1"], "--budget-nodes"),
        (["ramsey-number", "--pattern", "P3", "--n-max", "-3"], "--n-max"),
        (["threshold", "--pattern", "P3", "--n-max", "0"], "--n-max"),
    ])
    def test_negative_numeric_flags_exit_2(self, capsys, tmp_path, args, flag):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert not out.exists()

    def test_ramsey_number_has_no_threads_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ramsey-number", "--pattern", "P4", "--n-max", "5", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_env_budget_override(self):
        import os

        env = dict(os.environ, RAMSEY_BUDGET_NODES="40")
        proc = subprocess.run(
            [sys.executable, "-m", "ramseykit.cli", "mult", "--pattern", "P5", "--n", "7"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3

    def test_ramsey_number_report(self):
        proc = run_cli(["ramsey-number", "--pattern", "P4", "--n-max", "8"])
        report = json.loads(proc.stdout)
        validate(report)
        assert report["result"]["value"] == 5
        assert decode(report["result"]["witness_below_kcol"]).n == 4

    def test_threshold_report(self):
        proc = run_cli(["threshold", "--pattern", "S2", "--n-max", "6"])
        report = json.loads(proc.stdout)
        assert report["result"]["value"] == 1 and report["result"]["n"] == 3


class TestAnalysisCommands:
    def test_extremal_lambda_exact(self):
        proc = run_cli(["extremal-lambda", "--mode", "exact"], stdin_text=encode(chi(5, 4)))
        report = json.loads(proc.stdout)
        validate(report)
        assert abs(report["result"]["lambda_star"] - 1 / 18) < 1e-12

    def test_local_search_requires_seed(self):
        proc = run_cli(["extremal-lambda", "--mode", "local-search"], stdin_text=encode(chi(3, 3)))
        assert proc.returncode == 2
        assert "--seed" in proc.stderr

    def test_case2_certificate(self):
        proc = run_cli(
            ["case2", "--k", "5", "--A", "0-4", "--lambda", "0.1"],
            stdin_text=encode(chi(5, 4)),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        validate(report)
        assert report["result"]["bound"] == 12
        assert report["result"]["claim_used"] == "red-clique-K_k"

    def test_verify_claim_json_and_determinism(self):
        a = run_cli(["verify-claim", "--claim", "common-neighbor", "--instances", "20",
                     "--seed", "5"])
        b = run_cli(["verify-claim", "--claim", "common-neighbor", "--instances", "20",
                     "--seed", "5"])
        ra, rb = json.loads(a.stdout), json.loads(b.stdout)
        validate(ra)
        assert ra["result"] == rb["result"]
        assert ra["result"]["all_passed"] is True

    def test_verify_claim_requires_seed(self):
        proc = run_cli(["verify-claim", "--claim", "alternating"])
        assert proc.returncode == 2

    def test_verify_lemma_csv(self):
        proc = run_cli(["verify-lemma", "--lemma", "countpath2-p1", "--seed", "3",
                        "--instances", "2", "--csv"])
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("family,t,sizes")
        assert len(lines) == 1 + 2 * 6  # 3 families x 2 t-values x 2 instances

    def test_verify_lemma_json_schema(self):
        proc = run_cli(["verify-lemma", "--lemma", "countpath2-p2", "--seed", "3",
                        "--instances", "2"])
        report = json.loads(proc.stdout)
        validate(report)
        assert report["result"]["tally"].get("FAIL", 0) == 0

    @pytest.mark.parametrize(
        "cmd",
        [["verify-lemma", "--lemma", "countcycle1"], ["verify-claim", "--claim", "alternating"]],
    )
    @pytest.mark.parametrize("instances", ["0", "-1", "-3", "many"])
    def test_instances_below_one_exits_2(self, capsys, tmp_path, cmd, instances):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--seed", "1", "--instances", instances, "--out", str(out)])
        assert exc.value.code == 2
        assert "--instances" in capsys.readouterr().err
        assert not out.exists()

    def test_classify_chi(self):
        proc = run_cli(
            ["classify", "--parts", "0-4;5-8", "--eps", "0.0001"],
            stdin_text=encode(chi(5, 4)),
        )
        report = json.loads(proc.stdout)
        validate(report)
        assert report["result"]["case"] == "case2"

    def test_classify_auto_random_requires_seed(self):
        proc = run_cli(
            ["classify", "--parts", "auto-random:M=3", "--eps", "0.1"],
            stdin_text=encode(chi(5, 4)),
        )
        assert proc.returncode == 2

    def test_classify_auto_random_with_seed(self):
        proc = run_cli(
            ["classify", "--parts", "auto-random:M=3", "--eps", "0.3", "--reg-mode",
             "randomized", "--seed", "7"],
            stdin_text=encode(chi(6, 6)),
        )
        assert proc.returncode == 0
        validate(json.loads(proc.stdout))


class TestMainEntry:
    def test_in_process_main(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = main(["mult", "--pattern", "K3", "--n", "5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        validate(report)
        assert report["result"]["value"] == 0
