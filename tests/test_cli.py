"""CLI behavior: exit codes, report schema, pipe composition, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from ramseykit import cli, graphs, search
from ramseykit.cli import build_parser, main
from ramseykit.extremal import chi
from ramseykit.graphs import PatternGraph, TwoColoring, decode, encode, mono_counts

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

    def test_count_past_the_byte_cap_exits_2(self, monkeypatch, capsys, tmp_path):
        # a count whose walk layers would pass the cap used to end in a numpy
        # MemoryError traceback; the cap is lowered so the refusal comes fast
        monkeypatch.setattr(graphs, "MAX_COPY_BYTES", 1 << 16)
        kcol, out = tmp_path / "c.kcol", tmp_path / "r.json"
        kcol.write_text(encode(TwoColoring(12, 0x5A5A5A5A5A5A5A5A)))
        assert main(["count", "--pattern", "C8", "--in", str(kcol), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ramsey count: cannot count C8 in a 12-vertex host: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    # counted in each colour, K1 gave n and G3: C(n,3) on any colouring
    @pytest.mark.parametrize("pattern", ["K1", "G3:", "g5:"])
    @pytest.mark.parametrize("command", [
        ["count"],
        ["mult", "--n", "7"],
        ["ramsey-number", "--n-max", "7"],
        ["threshold", "--n-max", "7"],
    ], ids=lambda c: c[0])
    def test_an_edgeless_pattern_exits_2_with_one_message(self, capsys, tmp_path, command,
                                                          pattern):
        kcol, out = tmp_path / "chi43.kcol", tmp_path / "r.json"
        kcol.write_text(encode(chi(4, 3)))
        argv = command + ["--pattern", pattern, "--out", str(out)]
        if command == ["count"]:
            argv += ["--in", str(kcol)]
        assert main(argv) == 2
        label = PatternGraph.parse(pattern).label()
        assert capsys.readouterr().err == (
            f"ramsey {command[0]}: pattern {label} has no edge: monochromatic counts and "
            f"searches need a pattern with at least one edge\n"
        )
        assert not out.exists()


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

    @pytest.mark.parametrize("spec,problem", [
        ('{"n": 3.5, "red_pairs": []}', "n must be an integer, got 3.5"),
        ('{"n": "5", "red_pairs": []}', "n must be an integer, got '5'"),
        ('{"n": true, "red_pairs": []}', "n must be an integer, got True"),
        ('{"n": 4, "red_pairs": [[0]]}', "red_pairs holds [0], not a pair of integers"),
        ('{"n": 4, "red_pairs": [[0, 1, 2]]}', "red_pairs holds [0, 1, 2], not a pair of integers"),
        ('{"n": 4, "red_pairs": [["a", "b"]]}', "red_pairs holds ['a', 'b'], not a pair of integers"),
        ('{"n": 4, "red_pairs": 7}', "red_pairs must be a list of pairs, got 7"),
        ('{"n": 4, "red_pairs": [[0, 4]]}', "not a vertex pair of K_4: (0, 4)"),
    ])
    def test_bad_json_values_exit_2(self, capsys, tmp_path, spec, problem):
        # these ended in a TypeError or ValueError traceback, and n = true
        # wrote a kcol that decode rejects
        src, out = tmp_path / "spec.json", tmp_path / "c.kcol"
        src.write_text(spec)
        assert main(["encode", "--in", str(src), "--out", str(out)]) == 2
        assert f"ramsey encode: --in: {problem}\n" == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [-1, 65, 1_000_000_000_000])
    def test_vertex_count_is_checked_before_the_pairs(self, capsys, tmp_path, n):
        # n = 10**12 folded a pair into 1 << pair_index(...) first and ended in
        # an OverflowError traceback (too many digits in integer)
        src = tmp_path / "spec.json"
        src.write_text(json.dumps({"n": n, "red_pairs": [[100_000_000_000, 999_999_999_999]]}))
        assert main(["encode", "--in", str(src)]) == 2
        err = capsys.readouterr().err
        assert err == f"ramsey encode: --in: vertex count {n} outside [0, 64]\n"

    def test_undecodable_json_exits_2(self, capsys, tmp_path):
        # json.loads raised UnicodeDecodeError, which is no JSONDecodeError
        src = tmp_path / "spec.json"
        src.write_bytes(b"\xff\xfe\x00")
        assert main(["encode", "--in", str(src)]) == 2
        assert "ramsey encode: --in: expected JSON with n and red_pairs" in capsys.readouterr().err


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

    def test_zero_budget_seconds_stops_at_once(self, tmp_path):
        # --budget-seconds 0 used to turn the time cap off and run all 56,229
        # nodes; like --budget-nodes 0 it now stops before the first node
        out = tmp_path / "mult.json"
        args = ["mult", "--pattern", "K3", "--n", "9", "--budget-seconds", "0", "--out", str(out)]
        assert main(args) == 3
        result = json.loads(out.read_text())["result"]
        assert (result["exact"], result["stats"]["nodes"]) == (False, 0)
        assert result["resume_token"]

    def test_deep_board_budget_stop_exits_3(self):
        # a dive of C(46,2) = 1,035 edges once overflowed the Python stack
        proc = run_cli(["mult", "--pattern", "P2", "--n", "46", "--budget-nodes", "2000"])
        assert proc.returncode == 3 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["result"]["resume_token"]

    def test_copy_table_too_large_exits_2(self):
        proc = run_cli(["mult", "--pattern", "P4", "--n", "64", "--budget-nodes", "5000"])
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert "copies of P4" in proc.stderr

    def test_copy_table_over_the_byte_cap_exits_2_before_any_build(self, monkeypatch, capsys):
        # 7,624,512 rows: under 2^25, but of 252 bytes each
        builds = []
        monkeypatch.setattr(search, "enumerate_copy_masks", lambda *args: builds.append(args))
        assert main(["mult", "--pattern", "P4", "--n", "64"]) == 2
        assert "a copy table of 1,832 MiB, more than the 256 MiB" in capsys.readouterr().err
        assert builds == []

    def test_template_over_the_byte_cap_exits_2(self, capsys):
        search._local_copies.cache_clear()
        assert main(["mult", "--pattern", "P11", "--n", "11"]) == 2
        assert "the copy template of P11 walks 39,916,800 vertex orders" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["45", "60"])
    def test_a_board_a_seed_settles_exits_0_without_a_build(self, monkeypatch, tmp_path, n):
        # K_45 alone holds a 746 MiB table of S40 copies, but chi(a, n - a),
        # a near n/2, has largest monochromatic degree below 40
        builds = []
        monkeypatch.setattr(search, "enumerate_copy_masks", lambda *args: builds.append(args))
        search._board.cache_clear()
        out = tmp_path / "r.json"
        assert main(["mult", "--pattern", "S40", "--n", n, "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert (result["value"], result["exact"], builds) == (0, True, [])
        witness = decode(result["witness_kcol"])
        assert sum(mono_counts(witness, PatternGraph.star(40))) == 0

    def test_resume_from_file(self, tmp_path):
        # by node 400 of 809 the first leg has improved on the seed's 108
        # copies; M(P5, 7) = 96, and a resume that loses that incumbent reports 108
        proc = run_cli(["mult", "--pattern", "P5", "--n", "7", "--budget-nodes", "400"])
        assert proc.returncode == 3
        first = json.loads(proc.stdout)["result"]
        assert first["value"] < 108
        token = first["resume_token"]
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

    @pytest.mark.parametrize("value", ["abc", "1e3", "-5"])
    def test_bad_env_budget_exits_2(self, value):
        env = dict(os.environ, RAMSEY_BUDGET_NODES=value)
        proc = subprocess.run(
            [sys.executable, "-m", "ramseykit.cli", "mult", "--pattern", "P5", "--n", "7"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert f"RAMSEY_BUDGET_NODES must be an integer of at least 0, got {value!r}" in proc.stderr

    def test_budget_flag_overrides_the_env_budget(self, monkeypatch, tmp_path):
        # the variable is read only when --budget-nodes is absent
        monkeypatch.setenv("RAMSEY_BUDGET_NODES", "abc")
        out = tmp_path / "mult.json"
        args = ["mult", "--pattern", "P5", "--n", "7", "--budget-nodes", "40", "--out", str(out)]
        assert main(args) == 3
        report = json.loads(out.read_text())
        assert report["manifest"]["budget"]["max_nodes"] == 40
        assert report["result"]["stats"]["nodes"] == 40

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

    def test_threshold_budget_stop_exits_3(self, capsys):
        # boards up to K_8 are settled by seeds; the zero search of K_9 runs out
        assert main(["threshold", "--pattern", "C5", "--budget-nodes", "100"]) == 3
        err = capsys.readouterr().err
        assert "budget exhausted: the zero search of C5 on K_9 stopped after 100 nodes" in err
        assert "n_max" not in err

    @pytest.mark.parametrize("nodes,code", [(10_485, 3), (11_401, 3), (11_402, 0)])
    def test_threshold_draws_both_searches_from_one_budget(self, tmp_path, nodes, code):
        # the zero search of K_9 takes 917 nodes and M(C5, 9) 10,485; each
        # search used to get the whole budget, so 10,485 nodes gave exact: true
        out = tmp_path / "t.json"
        assert main(["threshold", "--pattern", "C5", "--n-max", "10",
                     "--budget-nodes", str(nodes), "--out", str(out)]) == code
        result = json.loads(out.read_text())["result"]
        assert result["exact"] is (code == 0)
        if code == 0:
            assert (result["value"], result["stats"]["nodes"]) == (12, 10_485)

    @pytest.mark.parametrize("nodes,code", [(47, 3), (61, 3), (62, 0)])
    def test_ramsey_number_draws_every_board_from_one_budget(self, tmp_path, nodes, code):
        # r(K3) = 6: the zero searches of K_5 and K_6 take 15 and 47 nodes,
        # and each used to get the whole budget
        out = tmp_path / "r.json"
        assert main(["ramsey-number", "--pattern", "K3", "--n-max", "6",
                     "--budget-nodes", str(nodes), "--out", str(out)]) == code
        result = json.loads(out.read_text())["result"]
        assert sum(board["nodes"] for board in result["per_n"]) <= nodes
        assert result["value"] == (6 if code == 0 else None)

    def test_threshold_above_n_max_exits_2(self, capsys):
        # r(C5) = 9: every board up to K_8 has a coloring with no monochromatic C5
        assert main(["threshold", "--pattern", "C5", "--n-max", "8"]) == 2
        assert "ramsey number of C5 exceeds n_max=8" in capsys.readouterr().err


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
        assert ra["result"]["zero_threshold"] == 0

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


    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_classify_auto_random_below_one_exits_2(self, capsys, tmp_path, m):
        kcol = tmp_path / "chi54.kcol"
        kcol.write_text(encode(chi(5, 4)))
        code = main(["classify", "--parts", f"auto-random:M={m}", "--eps", "0.1",
                     "--seed", "1", "--in", str(kcol)])
        assert code == 2
        assert "--parts" in capsys.readouterr().err

    def test_build_reduced_rejects_empty_part_list(self):
        from ramseykit.errors import PreconditionError
        from ramseykit.regular import RegimeParams
        from ramseykit.stability import build_reduced

        with pytest.raises(PreconditionError, match="at least one part"):
            build_reduced(chi(5, 4), [], RegimeParams(eps=0.1, d=0.0, t=2))

    @pytest.mark.parametrize("args,flag", [
        (["case2", "--k", "5", "--lambda", "0.1", "--A", "3-1,0"], "--A"),
        (["classify", "--eps", "0.1", "--parts", "5-3,0-4;6-8"], "--parts"),
    ])
    def test_reversed_range_exits_2(self, capsys, tmp_path, args, flag):
        kcol = tmp_path / "chi54.kcol"
        kcol.write_text(encode(chi(5, 4)))
        assert main(args + ["--in", str(kcol)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "reversed range" in err


class TestDiagnosticsNameTheFlag:
    @pytest.mark.parametrize("args,flag,problem", [
        (["classify", "--eps", "0.1", "--parts", "0-4;3-8"], "--parts", "part 1 meets an earlier part"),
        (["classify", "--eps", "0.1", "--parts", "0-4;5-9"], "--parts", "part 1 has vertices outside 0..8"),
        (["case2", "--k", "5", "--lambda", "0.1", "--A", "0-4,12"], "--A", "A has vertices outside 0..8"),
        (["case2", "--k", "5", "--lambda", "0.1", "--A", "0-8"], "--A",
         "A covers all 9 vertices, leaving B empty"),
        (["classify", "--eps", "0.1", "--parts", "0-2;5-7"], "--parts",
         "the parts leave out vertices [3, 4, 8]"),
    ])
    def test_library_validation_names_flag(self, capsys, tmp_path, args, flag, problem):
        kcol, out = tmp_path / "chi54.kcol", tmp_path / "r.json"
        kcol.write_text(encode(chi(5, 4)))
        assert main(args + ["--in", str(kcol), "--out", str(out)]) == 2
        assert f": {flag}: {problem}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,flag", [
        (["count", "--pattern", "C5", "--in"], "--in"),
        (["encode", "--in"], "--in"),
        (["mult", "--pattern", "P4", "--n", "5", "--resume-from"], "--resume-from"),
    ])
    def test_missing_input_file_names_flag(self, capsys, tmp_path, args, flag):
        missing, out = tmp_path / "missing.txt", tmp_path / "r.json"
        assert main(args + [str(missing), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f": {flag}: [Errno 2] No such file or directory: {str(missing)!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize("args,flag", [
        (["case2", "--k", "5", "--A", "0-4", "--lambda"], "--lambda"),
        (["classify", "--parts", "0-4;5-8", "--eps", "0.0001", "--d"], "--d"),
    ])
    def test_nan_or_negative_lambda_and_floor_exit_2(self, capsys, tmp_path, args, flag, value):
        # --d used to read nan or a negative floor as the default, and --lambda
        # used to stop with a non-extremality message naming no flag
        kcol = tmp_path / "c.kcol"
        kcol.write_text(encode(chi(5, 4)))
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(args + [value, "--in", str(kcol), "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "1"])
    def test_eps_outside_open_unit_interval_exits_2(self, capsys, tmp_path, value):
        # --eps 0 used to end in a ZeroDivisionError traceback, and the other
        # values in a message that named no flag
        kcol = tmp_path / "c.kcol"
        kcol.write_text(encode(chi(5, 4)))
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--parts", "0-8", "--eps", value, "--in", str(kcol),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument --eps: must lie in (0, 1), got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestMainEntry:
    def test_in_process_main(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = main(["mult", "--pattern", "K3", "--n", "5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        validate(report)
        assert report["result"]["value"] == 0

    def test_parser_built_once_per_process(self, monkeypatch, tmp_path):
        builds = []

        def counting_build(command=None):
            builds.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            kcol, out = tmp_path / "chi54.kcol", tmp_path / "count.json"
            assert main(["chi", "--a", "5", "--b", "4", "--out", str(kcol)]) == 0
            for _ in range(2):
                assert main(["count", "--pattern", "C5", "--in", str(kcol), "--out", str(out)]) == 0
        finally:
            cli._parser.cache_clear()
        assert decode(kcol.read_text()) == chi(5, 4)
        red, blue = mono_counts(chi(5, 4), PatternGraph.cycle(5))
        assert json.loads(out.read_text())["result"]["total"] == red + blue
        assert builds == ["chi", "count"]

    def test_named_subcommand_builds_one_subparser(self, monkeypatch, tmp_path):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting_add(action, name, **kwargs):
            added.append(name)
            return add_parser(action, name, **kwargs)

        kcol, out = tmp_path / "chi54.kcol", tmp_path / "count.json"
        kcol.write_text(encode(chi(5, 4)))
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add)
        cli._parser.cache_clear()
        try:
            assert main(["count", "--pattern", "C5", "--in", str(kcol), "--out", str(out)]) == 0
        finally:
            cli._parser.cache_clear()
        assert added == ["count"]


def _report_commands(tmp_path):
    """One fast argv per report command, reading its coloring from a file in tmp_path."""
    kcol = tmp_path / "chi54.kcol"
    kcol.write_text(encode(chi(5, 4)))
    kin = ["--in", str(kcol)]
    return {
        "count": ["count", "--pattern", "C5"] + kin,
        "decode": ["decode"] + kin,
        "mult": ["mult", "--pattern", "P5", "--n", "7", "--budget-nodes", "300"],
        "ramsey-number": ["ramsey-number", "--pattern", "P4", "--n-max", "6"],
        "threshold": ["threshold", "--pattern", "S2", "--n-max", "6", "--budget-seconds", "60"],
        "extremal-lambda": ["extremal-lambda", "--mode", "local-search", "--seed", "4"] + kin,
        "case2": ["case2", "--k", "5", "--A", "0-4", "--lambda", "0.1"] + kin,
        "verify-claim": ["verify-claim", "--claim", "common-neighbor", "--instances", "5",
                         "--seed", "5"],
        "verify-lemma": ["verify-lemma", "--lemma", "countpath2-p1", "--instances", "1",
                         "--seed", "3"],
        "classify": ["classify", "--parts", "auto-random:M=3", "--eps", "0.3", "--reg-mode",
                     "randomized", "--seed", "7"] + kin,
    }


def _timeless(result: dict) -> dict:
    """A report result without its one timing field, stats.elapsed_seconds."""
    stats = {k: v for k, v in result.get("stats", {}).items() if k != "elapsed_seconds"}
    return {**result, **({"stats": stats} if "stats" in result else {})}


class TestManifest:
    def test_every_report_kind_has_a_command(self, tmp_path):
        kinds = {entry[3] for entry in cli.SUBCOMMANDS.values()} - {None}
        assert kinds == set(SCHEMA["properties"]["kind"]["enum"])
        assert {name for name, entry in cli.SUBCOMMANDS.items() if entry[3]} == set(
            _report_commands(tmp_path))

    @pytest.mark.parametrize("command", ["count", "decode", "mult", "ramsey-number",
                                         "threshold", "extremal-lambda", "case2",
                                         "verify-claim", "verify-lemma", "classify"])
    def test_in_process_run_records_its_argv_and_reruns_to_its_result(
            self, monkeypatch, tmp_path, command):
        # a host's own argv used to be recorded: under perfbench/run.py a
        # report's command_line was that of the benchmark
        monkeypatch.setattr(sys, "argv", ["host.py", "--workload", "verify", "--seed", "3"])
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        argv = _report_commands(tmp_path)[command] + ["--out", str(first)]
        code = main(argv)
        report = json.loads(first.read_text())
        validate(report)
        manifest = report["manifest"]
        assert manifest["command_line"] == argv
        assert manifest["seed"] == (int(argv[argv.index("--seed") + 1])
                                    if "--seed" in argv else None)
        assert bool(manifest["budget"]) == (command in ("mult", "ramsey-number", "threshold"))
        rerun = list(manifest["command_line"])
        rerun[rerun.index("--out") + 1] = str(second)
        assert main(rerun) == code
        assert _timeless(json.loads(second.read_text())["result"]) == _timeless(report["result"])

    def test_subprocess_records_its_own_argv(self, tmp_path):
        out = tmp_path / "r.json"
        argv = ["mult", "--pattern", "K3", "--n", "6", "--out", str(out)]
        assert run_cli(argv).returncode == 0
        report = json.loads(out.read_text())
        assert report["manifest"]["command_line"] == argv
        rerun = argv[:-1] + [str(tmp_path / "again.json")]
        assert run_cli(rerun).returncode == 0
        again = json.loads((tmp_path / "again.json").read_text())
        assert again["manifest"]["command_line"] == rerun
        assert _timeless(again["result"]) == _timeless(report["result"])


class TestCheckpointLoop:
    @staticmethod
    def legs(tmp_path, argv):
        """Run argv through main, resuming from each leg's token until exit 0."""
        legs, token = [], tmp_path / "token.txt"
        while True:
            out = tmp_path / f"leg{len(legs)}.json"
            leg = argv + (["--resume-from", str(token)] if legs else []) + ["--out", str(out)]
            code = main(leg)
            report = json.loads(out.read_text())
            assert report["manifest"]["command_line"] == leg
            legs.append(report["result"])
            if code == 0:
                return legs
            assert code == 3 and len(legs) < 50
            token.write_text(report["result"]["resume_token"] + "\n")

    def test_p6_legs_add_up_to_one_run(self, tmp_path):
        # P6@8's seed has 360 copies, the minimum is 300: the legs must hand
        # the incumbent on, and their nodes add up to the uninterrupted 29,395
        legs = self.legs(tmp_path, ["mult", "--pattern", "P6", "--n", "8",
                                    "--budget-nodes", "5000"])
        assert len(legs) == 6
        assert (legs[-1]["value"], legs[-1]["exact"]) == (300, True)
        assert sum(leg["stats"]["nodes"] for leg in legs) == 29_395
        assert sum(mono_counts(decode(legs[-1]["witness_kcol"]), PatternGraph.path(6))) == 300


class TestExplicitPattern:
    CLAW = "G5:0-1,1-2,1-3"  # the claw plus the isolated vertex 4

    def test_mult_matches_the_library(self, tmp_path):
        h = PatternGraph.explicit(graphs.SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3)]))
        want = search.multiplicity(h, 7)
        out = tmp_path / "r.json"
        assert main(["mult", "--pattern", self.CLAW, "--n", "7", "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["pattern"] == self.CLAW == h.label()
        assert (result["value"], result["exact"], result["stats"]["nodes"]) == (
            want.value, True, want.stats.nodes)

    def test_a_budget_stop_resumes_through_the_cli(self, tmp_path):
        full = tmp_path / "full.json"
        assert main(["mult", "--pattern", self.CLAW, "--n", "7", "--out", str(full)]) == 0
        whole = json.loads(full.read_text())["result"]
        # spelled differently, the same pattern takes the same token
        legs = TestCheckpointLoop.legs(tmp_path, ["mult", "--pattern", "g5:1-0,3-1,2-1", "--n",
                                                  "7", "--budget-nodes", "700"])
        assert len(legs) > 1
        assert legs[-1]["value"] == whole["value"]
        assert sum(leg["stats"]["nodes"] for leg in legs) == whole["stats"]["nodes"]

    @pytest.mark.parametrize("pattern,problem", [
        ("G5:0-5", "has vertex 5 outside 0..4"),
        ("G5:1-1", "has a self-loop at vertex 1"),
        ("G5:0-1,1-0", "repeats edge 0-1"),
        ("G9:0-1", "has 9 vertices, more than 8"),
        ("G5:0-1;1-2", "cannot parse pattern"),
    ])
    def test_a_bad_pattern_exits_2_naming_the_flag(self, capsys, tmp_path, pattern, problem):
        out = tmp_path / "r.json"
        assert main(["mult", "--pattern", pattern, "--n", "7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ramsey mult: --pattern: ") and problem in err
        assert not out.exists()


def _parse_outcome(parser, argv, capsys):
    """What parse_args does with argv: the namespace, or the exit code and output."""
    capsys.readouterr()
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


class TestParserParity:
    @pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
    @pytest.mark.parametrize("tail", [["-h"], [], ["--out"]], ids=["help", "bare", "no-value"])
    def test_one_subcommand_parser_matches_full(self, capsys, command, tail):
        # bare: the missing-required-flag error, or the defaults where none is required
        full = _parse_outcome(build_parser(), [command] + tail, capsys)
        one = _parse_outcome(build_parser(command), [command] + tail, capsys)
        assert one == full
        if tail == ["-h"]:
            assert full[0] == 0 and full[1].startswith(f"usage: ramsey {command} [-h]")

    def test_unrecognized_flag_error_quotes_full_usage(self, capsys):
        want = _parse_outcome(build_parser(), ["decode", "--bogus"], capsys)
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--bogus"])
        err = capsys.readouterr().err
        assert (exc.value.code, err) == (2, want[2])
        assert "{chi,count,encode,decode,mult,ramsey-number," in err.replace("\n", "").replace(" ", "")
        assert err.endswith("ramsey: error: unrecognized arguments: --bogus\n")

    def test_top_level_texts(self, capsys):
        names = list(cli.SUBCOMMANDS)
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "ramsey: error: the following arguments are required: command\n")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        packed = "".join(capsys.readouterr().out.split())  # help lines wrap with the terminal
        assert "ExactthresholdRamseymultiplicitytoolkitforsmallgraphs" in packed
        for name, (help_line, *_) in cli.SUBCOMMANDS.items():
            assert name + "".join(help_line.split()) in packed
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        choices = ", ".join(repr(name) for name in names)
        assert capsys.readouterr().err.endswith(
            f"ramsey: error: argument command: invalid choice: 'bogus' (choose from {choices})\n")
        assert len(names) == 12


class TestSmallValuesScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "small_values.py"

    def run(self, args, **env):
        return subprocess.run([sys.executable, str(self.SCRIPT)] + args, env={**os.environ, **env},
                              capture_output=True, text=True)

    def test_a_bad_budget_exits_2_before_any_search(self):
        proc = self.run([], RAMSEY_BUDGET_NODES="abc")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "RAMSEY_BUDGET_NODES must be an integer of at least 0, got 'abc'" in proc.stderr

    def test_a_zero_search_stopped_on_the_budget_is_a_partial_row(self):
        proc = self.run(["--budget-nodes", "100", "--n-max", "9"])
        assert proc.returncode == 0
        rows = proc.stdout.splitlines()
        assert "  C5: PARTIAL, the zero search of C5 on K_9 stopped after 100 nodes" in "\n".join(rows)
        assert rows[0].startswith("  K2: r =  2   m =     1   [exact")


class TestBoardBuildScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "board_build.py"

    def test_prints_one_line_per_board(self):
        proc = subprocess.run([sys.executable, str(self.SCRIPT), "--boards", "P4@8,C4@13",
                               "--repeat", "1"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.splitlines()
        assert [row.partition(";")[0] for row in rows] == [
            "P4@8: 840 copies, a 0.0 MiB table", "C4@13: 2,145 copies, a 0.0 MiB table"]
        assert all("enumerate_copy_masks " in row and " MiB beyond the table" in row
                   for row in rows)
