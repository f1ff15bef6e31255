"""Command-line entry point: `ramsey <subcommand>`.

Exit codes: 0 success, 2 precondition or parse failure (diagnostic names
the offending flag), 3 budget exhaustion (a partial, clearly flagged
report is still written). Subcommands copy structured results to JSON
envelopes validating against schemas/report.schema.json; seeds are
mandatory wherever randomness is involved.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Optional

from .errors import (
    BudgetExceededError,
    HypothesisError,
    KcolParseError,
    PreconditionError,
    RamseykitError,
)
from .graphs import MAX_VERTICES, PatternGraph, TwoColoring, decode, encode, mono_counts
from .reports import RunManifest, emit, envelope
from .search import (
    SearchBudget,
    multiplicity,
    parse_resume_token,
    ramsey_number,
    threshold_multiplicity,
)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_text(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_vertex_set(spec: str, flag: str) -> list[int]:
    out: list[int] = []
    try:
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if "-" in chunk:
                lo, hi = chunk.split("-")
                out.extend(range(int(lo), int(hi) + 1))
            elif chunk:
                out.append(int(chunk))
    except ValueError:
        raise PreconditionError(f"{flag}: cannot parse vertex set {spec!r}")
    if not out:
        raise PreconditionError(f"{flag}: empty vertex set")
    return out


def _budget_from(args) -> SearchBudget:
    base = SearchBudget.from_env()
    nodes = getattr(args, "budget_nodes", None)
    seconds = getattr(args, "budget_seconds", None)
    return SearchBudget(
        max_nodes=nodes if nodes is not None else base.max_nodes,
        max_seconds=seconds,
    )


def _manifest(args, seed=None, budget: Optional[SearchBudget] = None) -> RunManifest:
    m = RunManifest(command_line=sys.argv[1:] or ["<api>"], seed=seed)
    if budget is not None:
        m.budget = {"max_nodes": budget.max_nodes, "max_seconds": budget.max_seconds}
    return m


def _load_coloring(args, manifest: RunManifest) -> TwoColoring:
    data = _read_input(args.infile)
    manifest.digest_input(args.infile, data)
    return decode(data.decode())


# --- subcommand handlers ---------------------------------------------------


def _cmd_chi(args) -> int:
    from .extremal import chi

    _write_text(encode(chi(args.a, args.b)), args.out)
    return 0


def _cmd_count(args) -> int:
    manifest = _manifest(args)
    coloring = _load_coloring(args, manifest)
    h = PatternGraph.parse(args.pattern)
    red, blue = mono_counts(coloring, h)
    result = {
        "pattern": h.label(),
        "n": coloring.n,
        "red": red,
        "blue": blue,
        "total": red + blue,
    }
    emit(envelope("count", result, manifest), args.out)
    return 0


def _cmd_encode(args) -> int:
    import json

    data = _read_input(args.infile)
    try:
        spec = json.loads(data)
        n = spec["n"]
        pairs = spec["red_pairs"]
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        raise PreconditionError(f"--in: expected JSON with n and red_pairs ({err})")
    from .graphs import pair_index

    mask = 0
    for i, j in pairs:
        mask |= 1 << pair_index(i, j, n)
    _write_text(encode(TwoColoring(n, mask)), args.out)
    return 0


def _cmd_decode(args) -> int:
    manifest = _manifest(args)
    coloring = _load_coloring(args, manifest)
    red, blue = [], []
    from .graphs import pair_iter

    for i, j in pair_iter(coloring.n):
        (red if coloring.is_red(i, j) else blue).append([i, j])
    result = {"n": coloring.n, "red_pairs": red, "blue_pairs": blue}
    emit(envelope("decode", result, manifest), args.out)
    return 0


def _cmd_mult(args) -> int:
    budget = _budget_from(args)
    manifest = _manifest(args, budget=budget)
    h = PatternGraph.parse(args.pattern)
    token = None
    if args.resume_from:
        with open(args.resume_from) as fh:
            token = fh.read().strip()
        try:
            parse_resume_token(token, h, args.n)
        except PreconditionError as err:
            raise PreconditionError(f"--resume-from: {err}") from None
    report = multiplicity(
        h, args.n, budget, threads=args.threads, resume_token=token
    )
    emit(envelope("multiplicity", report.as_dict(), manifest), args.out)
    return 0 if report.exact else 3


def _cmd_ramsey_number(args) -> int:
    budget = _budget_from(args)
    manifest = _manifest(args, budget=budget)
    h = PatternGraph.parse(args.pattern)
    report = ramsey_number(h, args.n_max, budget)
    emit(envelope("ramsey_number", report.as_dict(), manifest), args.out)
    return 0 if report.exact else 3


def _cmd_threshold(args) -> int:
    budget = _budget_from(args)
    manifest = _manifest(args, budget=budget)
    h = PatternGraph.parse(args.pattern)
    report = threshold_multiplicity(h, budget, n_max=args.n_max, threads=args.threads)
    emit(envelope("multiplicity", report.as_dict(), manifest), args.out)
    return 0 if report.exact else 3


def _cmd_extremal_lambda(args) -> int:
    from .extremal import extremal_parameter

    if args.mode == "local-search" and args.seed is None:
        raise PreconditionError("--seed is required with --mode local-search")
    manifest = _manifest(args, seed=args.seed)
    coloring = _load_coloring(args, manifest)
    res = extremal_parameter(coloring, mode=args.mode, seed=args.seed)
    result = {
        "n": res.n,
        "lambda_star": res.lambda_star,
        "A": list(res.partition[0]),
        "B": list(res.partition[1]),
        "within_color": res.color_role,
        "mode": res.mode,
    }
    emit(envelope("extremal_lambda", result, manifest), args.out)
    return 0


def _cmd_case2(args) -> int:
    from .extremal import case2_lower_bound

    manifest = _manifest(args)
    coloring = _load_coloring(args, manifest)
    a_set = _parse_vertex_set(args.a_set, "--A")
    b_set = [v for v in range(coloring.n) if v not in set(a_set)]
    cert = case2_lower_bound(coloring, args.k, a_set, b_set, args.lam)
    emit(envelope("case2_certificate", cert.as_dict(), manifest), args.out)
    return 0


def _cmd_verify_claim(args) -> int:
    from .battery import run_battery

    manifest = _manifest(args, seed=args.seed)
    report = run_battery(args.claim, args.instances, args.seed)
    if args.csv:
        lines = ["claim,instance,threshold,exact"]
        for f in report.failures:
            lines.append(
                f"{args.claim},{f.get('instance')},{f.get('threshold')},{f.get('exact')}"
            )
        _write_text("\n".join(lines) + "\n", args.out)
        return 0 if report.all_passed else 1
    emit(envelope("claim_verification", report.as_dict(), manifest), args.out)
    return 0 if report.all_passed else 1


def _cmd_verify_lemma(args) -> int:
    from .regular import GridSpec, verify_counting_lemma

    manifest = _manifest(args, seed=args.seed)
    spec = GridSpec.default(args.lemma)
    if args.instances is not None:
        spec = GridSpec(
            args.lemma, spec.t_values, spec.size_lo, spec.size_hi,
            instances_per_cell=args.instances, count_budget=spec.count_budget,
        )
    report = verify_counting_lemma(args.lemma, args.seed, spec)
    if args.csv:
        cols = "family,t,sizes,eps_hat,d,n,length,bound,hypotheses_met,exact,verdict"
        lines = [cols]
        for r in report.rows:
            lines.append(
                f"{r.family},{r.t},{'|'.join(map(str, r.sizes))},{r.eps_hat:.6f},"
                f"{r.d:.6f},{r.n},{r.length},{r.bound:.6g},{r.hypotheses_met},"
                f"{'' if r.exact is None else r.exact},{r.verdict}"
            )
        _write_text("\n".join(lines) + "\n", args.out)
    else:
        emit(envelope("lemma_verification", report.as_dict(), manifest), args.out)
    return 0 if report.tally().get("FAIL", 0) == 0 else 1


def _cmd_classify(args) -> int:
    from .regular import RegimeParams
    from .stability import main2_classify

    needs_seed = args.parts.startswith("auto-random") or args.reg_mode == "randomized"
    if needs_seed and args.seed is None:
        raise PreconditionError("--seed is required with auto-random parts or randomized checks")
    manifest = _manifest(args, seed=args.seed)
    coloring = _load_coloring(args, manifest)
    if args.parts.startswith("auto-random"):
        try:
            m = int(args.parts.split("M=", 1)[1])
        except (IndexError, ValueError):
            raise PreconditionError("--parts: expected auto-random:M=<count>")
        rng = random.Random(args.seed)
        order = list(range(coloring.n))
        rng.shuffle(order)
        parts = [order[i::m] for i in range(m)]
    else:
        parts = [_parse_vertex_set(p, "--parts") for p in args.parts.split(";")]
    params = RegimeParams(eps=args.eps, d=args.d, t=0, mode="explorer")
    outcome = main2_classify(coloring, parts, params, reg_mode=args.reg_mode, seed=args.seed)
    emit(envelope("classification", outcome.as_dict(), manifest), args.out)
    return 0


def _int_value(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _thread_count(text: str) -> int:
    """--threads: a worker count between 1 and the machine's CPU count."""
    limit = os.cpu_count() or 1
    value = _int_value(text)
    if not 1 <= value <= limit:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {limit} (the CPU count), got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """--instances, --n-max: at least 1."""
    value = _int_value(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _board_size(text: str) -> int:
    """--n: a board size between 1 and MAX_VERTICES."""
    value = _int_value(text)
    if not 1 <= value <= MAX_VERTICES:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_VERTICES}, got {value}")
    return value


def _nonnegative(kind):
    """--budget-nodes, --budget-seconds: a cap of at least 0."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not value >= 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ramsey",
        description="Exact threshold Ramsey multiplicity toolkit for small graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    def add_budget(p):
        p.add_argument("--budget-nodes", type=_nonnegative(int), default=None,
                       help="search node cap (default RAMSEY_BUDGET_NODES or built-in)")
        p.add_argument("--budget-seconds", type=_nonnegative(float), default=None)

    p = sub.add_parser("chi", help="emit the two-blue-cliques coloring chi(a,b) as kcol")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    add_out(p)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("count", help="monochromatic copy counts of a pattern in a kcol coloring")
    p.add_argument("--pattern", required=True, help="C5, P4, K3, S3, ...")
    p.add_argument("--in", dest="infile", default="-")
    add_out(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("encode", help="JSON {n, red_pairs} -> kcol")
    p.add_argument("--in", dest="infile", default="-")
    add_out(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="kcol -> JSON edge lists")
    p.add_argument("--in", dest="infile", default="-")
    add_out(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("mult", help="exact minimum monochromatic copies over colorings of K_n")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=_board_size, required=True)
    p.add_argument("--resume-from", default=None, help="file holding a resume token")
    add_budget(p)
    p.add_argument("--threads", type=_thread_count, default=1)
    add_out(p)
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("ramsey-number", help="least n forcing a monochromatic copy")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-max", type=_positive_int, default=12)
    add_budget(p)
    add_out(p)
    p.set_defaults(func=_cmd_ramsey_number)

    p = sub.add_parser("threshold", help="multiplicity at the ramsey number")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-max", type=_positive_int, default=12)
    add_budget(p)
    p.add_argument("--threads", type=_thread_count, default=1)
    add_out(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("extremal-lambda", help="smallest extremality parameter of a coloring")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--mode", choices=("exact", "local-search"), default="exact")
    p.add_argument("--seed", type=int, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_extremal_lambda)

    p = sub.add_parser("case2", help="certified monochromatic cycle bound for a near-extremal coloring")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--A", dest="a_set", required=True, help="vertex set, e.g. 0-4 or 0,2,5")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    add_out(p)
    p.set_defaults(func=_cmd_case2)

    p = sub.add_parser("verify-claim", help="seeded structured-instance battery for one claim verifier")
    p.add_argument("--claim", required=True,
                   choices=("common-neighbor", "bridged-cliques", "alternating", "two-matching"))
    p.add_argument("--instances", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    add_out(p)
    p.set_defaults(func=_cmd_verify_claim)

    p = sub.add_parser("verify-lemma", help="measured-defect verification grid for a counting bound")
    p.add_argument("--lemma", required=True,
                   choices=("countpath2-p1", "countpath2-p2", "countcycle1"))
    p.add_argument("--grid", default="default", choices=("default",))
    p.add_argument("--instances", type=_positive_int, default=None,
                   help="override instances per cell")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    add_out(p)
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("classify", help="ring-structured vs near-extremal classification")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--parts", required=True, help='"auto-random:M=8" or "0-4;5-8"')
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--d", type=float, default=0.0, help="reduced density floor (default 12*sqrt(eps))")
    p.add_argument("--reg-mode", choices=("exact", "randomized"), default="exact")
    p.add_argument("--seed", type=int, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_classify)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KcolParseError as err:
        print(f"ramsey {args.command}: kcol parse error: {err}", file=sys.stderr)
        return 2
    except (PreconditionError, HypothesisError) as err:
        print(f"ramsey {args.command}: {err}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"ramsey {args.command}: budget exhausted: {err}", file=sys.stderr)
        return 3
    except RamseykitError as err:
        print(f"ramsey {args.command}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"ramsey {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
