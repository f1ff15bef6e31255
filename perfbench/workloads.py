"""Workloads of the ramseykit benchmark: seeded inputs, task lists and oracles.

Every task issues real `ramsey` subcommands in-process through
`ramseykit.cli.main(argv)`, reads the JSON envelope each one writes, and
checks it against an oracle that does not come from the program:

* Goodman's closed form for M(K3, n) (Amer. Math. Monthly 66, 1959);
* m(C_k) = (k-1)!/2 and r(C_k) = 2k-1 for odd k;
* M(P6, 8) = 300 and M(P4, 5) = 10, pinned from uninterrupted runs;
* the lemma grids must hold no FAIL and no undecided-budget row;
* every case-2 bound must be at most the exact monochromatic count.

A task fails when an exit code differs from the expected one, an envelope
does not validate against schemas/report.schema.json, a value differs from
its oracle, a witness recount with `ramsey count` disagrees, or a command
raises. Failures are counted, never hidden: the resume legs cut at a point
drawn uniformly from the seed, whatever the cut does to the result.

The resume legs form a workload of their own, `resume`, outside the three
that BENCHMARK.json lists: at the seed commit a resumed search returns a
wrong value with `exact: true` on most cuts (ROADMAP item 1), and the gated
workloads must be ones on which no operation fails. `run.py --workload
resume` reports that defect as measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from math import comb, factorial
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("search-sparse", "search-dense", "verify")
RESUME = "resume"
ALL_WORKLOADS = WORKLOADS + (RESUME,)
SIZES = ("full", "tiny")

# The three lemma grids: t values per lemma and the three instance families,
# so a complete grid has 3 * len(t_values) * instances rows.
LEMMA_T_VALUES = {"countpath2-p1": (2, 3), "countpath2-p2": (2, 3), "countcycle1": (3,)}
LEMMA_FAMILIES = 3
CLAIMS = ("common-neighbor", "bridged-cliques", "alternating", "two-matching")
# (k, lambda) of the certification chain on perturbed colour-swapped chi(k, k-1);
# the lambda values are those of the case-2 soundness acceptance test.
CERT_BOARDS = ((5, 0.4), (7, 0.25))
CLASSIFY_EPS = "0.0001"

# Sizes of the legs. "tiny" keeps every task and metric name but shrinks the
# boards, so the self-check exercises the whole pipeline in seconds.
SIZE_PARAMS = {
    "full": {
        "k3_n": 9, "p6": ("P6", 8), "r_cycle": ("C7", 13), "budget_board": ("C7", 13),
        "budget_nodes": 5000, "lemma_instances": 2, "claim_instances": 100,
        "certs_per_board": 20,
    },
    "tiny": {
        "k3_n": 6, "p6": ("P4", 5), "r_cycle": ("C5", 9), "budget_board": ("C5", 9),
        "budget_nodes": 200, "lemma_instances": 1, "claim_instances": 5,
        "certs_per_board": 2,
    },
}
PINNED = {("P6", 8): 300, ("P4", 5): 10}
# Each pass draws its own inputs (resume cut, lemma and claim seeds, perturbed
# colorings) from a cycle of this many sets generated from the workload seed,
# so a run's median covers several draws and not one. The verify pass is kept
# small (3-4 s) so that a run's median spans about nine draws.
INPUT_SETS = 8


def goodman_k3(n: int) -> int:
    """M(K3, n) = C(n,3) - floor((n/2) floor((n-1)^2/4))."""
    return comb(n, 3) - (n * ((n - 1) ** 2 // 4)) // 2


def cycle_threshold(k: int) -> int:
    """m(C_k) = (k-1)!/2, reached at n = r(C_k) = 2k-1 for odd k."""
    return factorial(k - 1) // 2


class Mismatch(Exception):
    """An output disagreed with its oracle or with the expected exit code."""

    def __init__(self, message: str, measures: Optional[dict] = None):
        super().__init__(message)
        self.measures = measures or {}


@dataclass
class Call:
    argv: list
    rc: int
    seconds: float
    envelope: Optional[dict]
    stderr: str

    @property
    def result(self) -> dict:
        return self.envelope["result"]


@dataclass
class TaskResult:
    name: str
    kind: str
    ok: bool
    detail: str
    seconds: float
    cpu_s: float
    measures: dict = field(default_factory=dict)


@dataclass
class Task:
    name: str
    kind: str  # search | resume | parallel | lemma | claim | cert
    fn: Callable


def _kcol(n: int, red_pairs) -> str:
    """kcol: decimal n, then the row-major red mask over C(n,2) pairs in hex."""
    mask = 0
    for i, j in red_pairs:
        mask |= 1 << (i * n - i * (i + 1) // 2 + (j - i - 1))
    width = (comb(n, 2) + 3) // 4
    return f"{n}\n{mask:0{width}x}\n"


def _perturbed_two_cliques(k: int, rng: random.Random) -> tuple[int, set]:
    """Red cliques on {0..k-1} and {k..2k-2}, blue across, with 1-2 flipped pairs."""
    n = 2 * k - 1
    red = {(i, j) for i in range(n) for j in range(i + 1, n) if (i < k) == (j < k)}
    flips: set = set()
    want = rng.randint(1, 2)
    while len(flips) < want:
        u, v = rng.sample(range(n), 2)
        flips.add((min(u, v), max(u, v)))
    return n, red ^ flips


class Runner:
    """Issues `ramsey` commands in-process and checks their envelopes."""

    def __init__(self, work: Path, modules: dict, validator):
        self.work = work
        self.cli = modules["cli"]
        self.validator = validator
        # A `ramsey` process starts with empty memo caches; so does every call here.
        self.caches = [fn for module in modules.values() for fn in vars(module).values()
                       if callable(getattr(fn, "cache_clear", None))]

    def ramsey(self, argv: list, out: str) -> Call:
        path = self.work / out
        path.unlink(missing_ok=True)
        for fn in self.caches:
            fn.cache_clear()
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(argv + ["--out", str(path)])
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - t0
        envelope = json.loads(path.read_text()) if path.exists() else None
        return Call(argv, rc, seconds, envelope, err.getvalue().strip())

    def check(self, call: Call, kind: str, rc: int = 0) -> Call:
        command = f"`ramsey {' '.join(call.argv)}`"
        if call.rc != rc:
            raise Mismatch(f"{command} exit {call.rc}, expected {rc}: {call.stderr}")
        if call.envelope is None:
            raise Mismatch(f"{command} wrote no envelope")
        errors = sorted(self.validator.iter_errors(call.envelope), key=str)
        if errors:
            raise Mismatch(f"{command} envelope invalid: {errors[0].message}")
        if call.envelope["kind"] != kind:
            raise Mismatch(f"{command} kind {call.envelope['kind']!r}, expected {kind!r}")
        return call

    def checked(self, argv: list, out: str, kind: str, rc: int = 0) -> Call:
        return self.check(self.ramsey(argv, out), kind, rc)

    def recount(self, pattern: str, kcol: str, expect: int, out: str) -> None:
        path = self.work / f"{out}.kcol"
        path.write_text(kcol)
        call = self.checked(["count", "--pattern", pattern, "--in", str(path)], f"{out}.count.json", "count")
        if call.result["total"] != expect:
            raise Mismatch(f"witness recount of {pattern} gives {call.result['total']}, reported {expect}")


def expect_eq(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what} = {got!r}, oracle {want!r}")


@dataclass
class Workload:
    """The seeded inputs of one workload and the task list of each pass."""

    name: str
    size: str
    oracles: dict
    sets: list

    def tasks(self, pass_index: int) -> list[Task]:
        p = SIZE_PARAMS[self.size]
        inputs = self.sets[pass_index % INPUT_SETS]
        cut = inputs["cut"]
        if self.name == "search-sparse":
            k3 = p["k3_n"]
            return [
                Task("m_C5", "search", lambda r, c: _threshold_leg(r, c, "C5", 10, self.oracles["m_C5"])),
                Task("K3_9", "search", lambda r, c: _mult_leg(r, c, "K3_9", "K3", k3, self.oracles["K3_9"])),
                Task("K3_9_2w", "parallel", lambda r, c: _mult_leg(
                    r, c, "K3_9_2w", "K3", k3, self.oracles["K3_9"], extra=["--threads", "2"])),
            ]
        if self.name == "search-dense":
            (pp, pn), (rp, rn), (bp, bn) = p["p6"], p["r_cycle"], p["budget_board"]
            return [
                Task("P6_8", "search", lambda r, c: _mult_leg(r, c, "P6_8", pp, pn, self.oracles["P6_8"])),
                Task("r_C7", "search", lambda r, c: _ramsey_number_leg(r, c, rp, rn, self.oracles["r_C7"])),
                Task("C7_13_budget", "search", lambda r, c: _mult_leg(
                    r, c, "C7_13_budget", bp, bn, self.oracles["C7_13_budget"],
                    extra=["--budget-nodes", str(p["budget_nodes"])], rc=3)),
            ]
        if self.name == RESUME:
            k3, (pp, pn) = p["k3_n"], p["p6"]
            return [
                Task("K3_9", "search", lambda r, c: _mult_leg(r, c, "K3_9", "K3", k3, self.oracles["K3_9"])),
                Task("K3_9_resume", "resume", lambda r, c: _resume_leg(r, c, "K3_9", "K3", k3, cut)),
                Task("P6_8", "search", lambda r, c: _mult_leg(r, c, "P6_8", pp, pn, self.oracles["P6_8"])),
                Task("P6_8_resume", "resume", lambda r, c: _resume_leg(r, c, "P6_8", pp, pn, cut)),
            ]
        tasks = [
            Task(f"lemma.{lemma}", "lemma", lambda r, c, lemma=lemma: _lemma_leg(
                r, lemma, inputs["seed"], p["lemma_instances"], self.oracles[f"rows.{lemma}"]))
            for lemma in LEMMA_T_VALUES
        ]
        tasks += [
            Task(f"claim.{claim}", "claim", lambda r, c, claim=claim: _claim_leg(
                r, claim, inputs["seed"], self.oracles["claim_instances"]))
            for claim in CLAIMS
        ]
        tasks += [
            Task(f"cert.{i}", "cert", lambda r, c, cert=cert: _cert_chain(r, *cert))
            for i, cert in enumerate(inputs["certs"])
        ]
        return tasks


def build(name: str, seed: int, size: str, wrong_oracle: bool = False) -> Workload:
    """Generate every input of a workload from its seed."""
    if name not in ALL_WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {ALL_WORKLOADS}")
    p = SIZE_PARAMS[size]
    rng = random.Random(f"ramseykit-bench:{name}:{seed}")
    if name == "search-sparse":
        oracles = {"m_C5": (cycle_threshold(5), 2 * 5 - 1), "K3_9": goodman_k3(p["k3_n"])}
    elif name == "search-dense":
        rk = int(p["r_cycle"][0][1:])
        bk = int(p["budget_board"][0][1:])
        oracles = {
            "P6_8": PINNED[p["p6"]],
            "r_C7": 2 * rk - 1,
            "C7_13_budget": cycle_threshold(bk),
        }
    elif name == RESUME:
        oracles = {"K3_9": goodman_k3(p["k3_n"]), "P6_8": PINNED[p["p6"]]}
    else:
        oracles = {
            f"rows.{lemma}": LEMMA_FAMILIES * len(ts) * p["lemma_instances"]
            for lemma, ts in LEMMA_T_VALUES.items()
        }
        oracles["claim_instances"] = p["claim_instances"]
    if wrong_oracle:
        # Self-check hook: skew the first oracle so the gate must report it.
        first = next(iter(oracles))
        value = oracles[first]
        oracles[first] = (value[0] + 1, value[1]) if isinstance(value, tuple) else value + 1
    sets = []
    for s in range(INPUT_SETS):
        inputs = {"cut": rng.random(), "seed": rng.randrange(2**31), "certs": []}
        if name == "verify":
            for k, lam in CERT_BOARDS:
                for i in range(p["certs_per_board"]):
                    inputs["certs"].append((_kcol(*_perturbed_two_cliques(k, rng)), k, lam))
        sets.append(inputs)
    return Workload(name, size, oracles, sets)


# --- legs --------------------------------------------------------------------


def _mult_leg(run: Runner, ctx: dict, key: str, pattern: str, n: int, oracle: int,
              extra: tuple = (), rc: int = 0) -> dict:
    call = run.checked(["mult", "--pattern", pattern, "--n", str(n), *extra],
                       f"{key}.json", "multiplicity", rc)
    res = call.result
    expect_eq(f"M({pattern}, {n})", res["value"], oracle)
    expect_eq("exact", res["exact"], rc == 0)
    run.recount(pattern, res["witness_kcol"], res["value"], key)
    ctx[key] = res
    return {"board_s": call.seconds, "nodes": res["stats"]["nodes"]}


def _threshold_leg(run: Runner, ctx: dict, pattern: str, n_max: int, oracle: tuple) -> dict:
    call = run.checked(["threshold", "--pattern", pattern, "--n-max", str(n_max)],
                       "threshold.json", "multiplicity")
    res = call.result
    expect_eq(f"m({pattern})", (res["value"], res["n"]), oracle)
    expect_eq("exact", res["exact"], True)
    run.recount(pattern, res["witness_kcol"], res["value"], "threshold")
    return {"board_s": call.seconds, "nodes": res["stats"]["nodes"]}


def _ramsey_number_leg(run: Runner, ctx: dict, pattern: str, n_max: int, oracle: int) -> dict:
    call = run.checked(["ramsey-number", "--pattern", pattern, "--n-max", str(n_max)],
                       "ramsey_number.json", "ramsey_number")
    res = call.result
    expect_eq(f"r({pattern})", res["value"], oracle)
    expect_eq("exact", res["exact"], True)
    if res["witness_below_kcol"] is None:
        raise Mismatch(f"r({pattern}) report carries no zero-copy witness below it")
    run.recount(pattern, res["witness_below_kcol"], 0, "ramsey_number")
    return {"board_s": call.seconds, "nodes": sum(row["nodes"] for row in res["per_n"])}


def _resume_leg(run: Runner, ctx: dict, key: str, pattern: str, n: int, u: float) -> dict:
    """Cut the board at a seeded node count, resume, compare with the full run."""
    full = ctx.get(key)
    if full is None:
        raise Mismatch(f"no uninterrupted {key} run in this pass to cut")
    total = full["stats"]["nodes"]
    cut = 1 + int(u * (total - 1))
    base = ["mult", "--pattern", pattern, "--n", str(n)]
    first = run.checked(base + ["--budget-nodes", str(cut)], f"{key}.cut.json", "multiplicity", 3)
    token = first.result["resume_token"]
    if not token:
        raise Mismatch(f"budget stop at {cut} nodes left no resume token")
    token_path = run.work / f"{key}.token"
    token_path.write_text(token + "\n")
    second = run.checked(base + ["--resume-from", str(token_path)], f"{key}.resumed.json", "multiplicity")
    res = second.result
    measures = {
        "board_s": first.seconds + second.seconds,
        "cut": cut,
        "nodes_first": first.result["stats"]["nodes"],
        "nodes_second": res["stats"]["nodes"],
        "mismatch": int(res["value"] != full["value"]),
    }
    if res["value"] != full["value"]:
        raise Mismatch(
            f"resumed after a cut at {cut} of {total} nodes: value {res['value']} "
            f"(exact={res['exact']}), uninterrupted {full['value']}",
            measures,
        )
    expect_eq("exact", res["exact"], True)
    run.recount(pattern, res["witness_kcol"], res["value"], f"{key}.resumed")
    return measures


def _lemma_leg(run: Runner, lemma: str, seed: int, instances: int, rows: int) -> dict:
    call = run.checked(["verify-lemma", "--lemma", lemma, "--seed", str(seed),
                        "--instances", str(instances)], f"lemma.{lemma}.json", "lemma_verification")
    res = call.result
    expect_eq(f"{lemma} grid rows", len(res["rows"]), rows)
    bad = {v: res["tally"].get(v, 0) for v in ("FAIL", "undecided-budget")}
    if any(bad.values()):
        raise Mismatch(f"{lemma} grid has {bad}")
    return {
        "seconds": call.seconds,
        "rows": len(res["rows"]),
        "truncated": sum(1 for row in res["rows"] if not row["count_complete"]),
        "degenerate_pass": sum(1 for row in res["rows"]
                               if row["verdict"] == "pass" and row["eps_hat"] == 0),
    }


def _claim_leg(run: Runner, claim: str, seed: int, instances: int) -> dict:
    call = run.checked(["verify-claim", "--claim", claim, "--seed", str(seed),
                        "--instances", str(instances)], f"claim.{claim}.json", "claim_verification")
    res = call.result
    expect_eq(f"{claim} instances checked", res["checked"], instances)
    if res["failures"]:
        raise Mismatch(f"{claim} battery failed: {res['failures'][0]}")
    return {"seconds": call.seconds, "instances": instances}


def _cert_chain(run: Runner, kcol: str, k: int, lam: float) -> dict:
    """count -> extremal-lambda -> case2 -> classify on one perturbed coloring."""
    path = run.work / "cert.kcol"
    path.write_text(kcol)
    src = ["--in", str(path)]
    count = run.checked(["count", "--pattern", f"C{k}", *src], "cert.count.json", "count")
    exact = count.result["total"]
    lam_call = run.checked(["extremal-lambda", "--mode", "exact", *src], "cert.lambda.json", "extremal_lambda")
    if not 0 <= lam_call.result["lambda_star"] <= 1:
        raise Mismatch(f"lambda_star {lam_call.result['lambda_star']} outside [0, 1]")
    case2_argv = ["case2", *src, "--k", str(k), "--A", f"0-{k - 1}", "--lambda", str(lam)]
    case2 = run.ramsey(case2_argv, "cert.case2.json")
    seconds = count.seconds + lam_call.seconds + case2.seconds
    if case2.rc == 0:
        run.check(case2, "case2_certificate")
        bound = case2.result["bound"]
        if bound > exact:
            raise Mismatch(f"case-2 bound {bound} exceeds the exact C{k} count {exact}")
    elif case2.rc != 2 or not case2.stderr:
        # The decision tree may stop with a diagnostic (exit 2); anything else fails.
        raise Mismatch(f"case2 exit {case2.rc} without a diagnostic: {case2.stderr}")
    classify = run.checked(["classify", *src, "--parts", f"0-{k - 1};{k}-{2 * k - 2}",
                            "--eps", CLASSIFY_EPS], "cert.classify.json", "classification")
    seconds += classify.seconds
    return {"seconds": seconds, "certified": int(case2.rc == 0)}
