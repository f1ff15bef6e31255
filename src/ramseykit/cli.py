"""Command-line entry point: `ramsey <subcommand>`.

Exit codes: 0 success, 2 precondition or parse failure (diagnostic names
the offending flag), 3 budget exhaustion (a partial, clearly flagged
report is still written). Subcommands copy structured results to JSON
envelopes validating against schemas/report.schema.json; seeds are
mandatory wherever randomness is involved.

SUBCOMMANDS is the one table of subcommands: name, help, handler and the
function adding its arguments. When the first argument names a
subcommand, `main` builds the parser of that subcommand alone, once per
process: about 0.3 ms, against about 2 ms for all twelve (2 cores,
Python 3.11). Anything else (no argument, `--help`, an unknown name) gets
the full parser, and so does an unrecognized flag, whose error quotes the
top-level usage; usage, help and error texts are those of the full parser.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
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
from .graphs import (
    MAX_VERTICES,
    PatternGraph,
    TwoColoring,
    decode,
    encode,
    mono_counts,
    pair_index,
    vertex_set,
)
from .reports import RunManifest, emit, envelope, write_text
from .search import (
    SearchBudget,
    multiplicity,
    parse_resume_token,
    ramsey_number,
    threshold_multiplicity,
)


@contextlib.contextmanager
def _flag(name: str):
    """Re-raise a validation or file error of the block naming the flag behind it."""
    try:
        yield
    except (PreconditionError, OSError) as err:
        raise PreconditionError(f"{name}: {err}") from None


def _read_input(path: str) -> bytes:
    """The bytes of --in, a file or stdin for "-"."""
    if path == "-":
        return sys.stdin.buffer.read()
    with _flag("--in"), open(path, "rb") as fh:
        return fh.read()


def _parse_vertex_set(spec: str, flag: str) -> list[int]:
    out: list[int] = []
    try:
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if "-" in chunk:
                lo, hi = map(int, chunk.split("-"))
                if lo > hi:
                    raise PreconditionError(f"{flag}: reversed range {chunk!r} in {spec!r}")
                out.extend(range(lo, hi + 1))
            elif chunk:
                out.append(int(chunk))
    except ValueError:
        raise PreconditionError(f"{flag}: cannot parse vertex set {spec!r}")
    if not out:
        raise PreconditionError(f"{flag}: empty vertex set")
    return out


def _budget_from(args) -> SearchBudget:
    """--budget-nodes, else RAMSEY_BUDGET_NODES, else the default; and --budget-seconds."""
    nodes = getattr(args, "budget_nodes", None)
    if nodes is None:
        nodes = SearchBudget.from_env().max_nodes
    return SearchBudget(max_nodes=nodes, max_seconds=getattr(args, "budget_seconds", None))


def _manifest(seed=None, budget: Optional[SearchBudget] = None) -> RunManifest:
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

    write_text(encode(chi(args.a, args.b)), args.out)
    return 0


def _cmd_count(args) -> int:
    manifest = _manifest()
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
    except (ValueError, KeyError, TypeError) as err:
        raise PreconditionError(f"--in: expected JSON with n and red_pairs ({err})")
    with _flag("--in"):
        if type(n) is not int:  # JSON true and false load as bools, which are ints
            raise PreconditionError(f"n must be an integer, got {n!r}")
        if not isinstance(pairs, list):
            raise PreconditionError(f"red_pairs must be a list of pairs, got {pairs!r}")
        mask = 0
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(v) is int for v in pair)):
                raise PreconditionError(f"red_pairs holds {pair!r}, not a pair of integers")
            mask |= 1 << pair_index(*pair, n)
        coloring = TwoColoring(n, mask)
    write_text(encode(coloring), args.out)
    return 0


def _cmd_decode(args) -> int:
    manifest = _manifest()
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
    manifest = _manifest(budget=budget)
    h = PatternGraph.parse(args.pattern)
    token = None
    if args.resume_from:
        with _flag("--resume-from"):
            with open(args.resume_from) as fh:
                token = fh.read().strip()
            parse_resume_token(token, h, args.n)
    report = multiplicity(
        h, args.n, budget, threads=args.threads, resume_token=token
    )
    emit(envelope("multiplicity", report.as_dict(), manifest), args.out)
    return 0 if report.exact else 3


def _cmd_ramsey_number(args) -> int:
    budget = _budget_from(args)
    manifest = _manifest(budget=budget)
    h = PatternGraph.parse(args.pattern)
    report = ramsey_number(h, args.n_max, budget)
    emit(envelope("ramsey_number", report.as_dict(), manifest), args.out)
    return 0 if report.exact else 3


def _cmd_threshold(args) -> int:
    budget = _budget_from(args)
    manifest = _manifest(budget=budget)
    h = PatternGraph.parse(args.pattern)
    report = threshold_multiplicity(h, budget, n_max=args.n_max, threads=args.threads)
    emit(envelope("multiplicity", report.as_dict(), manifest), args.out)
    return 0 if report.exact else 3


def _cmd_extremal_lambda(args) -> int:
    from .extremal import extremal_parameter

    if args.mode == "local-search" and args.seed is None:
        raise PreconditionError("--seed is required with --mode local-search")
    manifest = _manifest(seed=args.seed)
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

    manifest = _manifest()
    coloring = _load_coloring(args, manifest)
    a_set = _parse_vertex_set(args.a_set, "--A")
    with _flag("--A"):
        a_set = vertex_set(a_set, coloring.n, "A")[0]
        b_set = [v for v in range(coloring.n) if v not in set(a_set)]
        if not b_set:
            raise PreconditionError(f"A covers all {coloring.n} vertices, leaving B empty")
    cert = case2_lower_bound(coloring, args.k, a_set, b_set, args.lam)
    emit(envelope("case2_certificate", cert.as_dict(), manifest), args.out)
    return 0


def _cmd_verify_claim(args) -> int:
    from .battery import run_battery

    manifest = _manifest(seed=args.seed)
    report = run_battery(args.claim, args.instances, args.seed)
    if args.csv:
        lines = ["claim,instance,threshold,exact"]
        for f in report.failures:
            lines.append(
                f"{args.claim},{f.get('instance')},{f.get('threshold')},{f.get('exact')}"
            )
        write_text("\n".join(lines) + "\n", args.out)
        return 0 if report.all_passed else 1
    emit(envelope("claim_verification", report.as_dict(), manifest), args.out)
    return 0 if report.all_passed else 1


def _cmd_verify_lemma(args) -> int:
    from .regular import GridSpec, verify_counting_lemma

    manifest = _manifest(seed=args.seed)
    spec = GridSpec.default(args.lemma)
    if args.instances is not None:
        spec = dataclasses.replace(spec, instances_per_cell=args.instances)
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
        write_text("\n".join(lines) + "\n", args.out)
    else:
        emit(envelope("lemma_verification", report.as_dict(), manifest), args.out)
    return 0 if report.tally().get("FAIL", 0) == 0 else 1


def _cmd_classify(args) -> int:
    from .regular import RegimeParams
    from .stability import disjoint_parts, main2_classify

    needs_seed = args.parts.startswith("auto-random") or args.reg_mode == "randomized"
    if needs_seed and args.seed is None:
        raise PreconditionError("--seed is required with auto-random parts or randomized checks")
    manifest = _manifest(seed=args.seed)
    coloring = _load_coloring(args, manifest)
    if args.parts.startswith("auto-random"):
        try:
            m = int(args.parts.split("M=", 1)[1])
        except (IndexError, ValueError):
            raise PreconditionError("--parts: expected auto-random:M=<count>")
        if not 1 <= m <= coloring.n:
            raise PreconditionError(f"--parts: auto-random needs 1 <= M <= {coloring.n}, got {m}")
        rng = random.Random(args.seed)
        order = list(range(coloring.n))
        rng.shuffle(order)
        parts = [order[i::m] for i in range(m)]
    else:
        parts = [_parse_vertex_set(p, "--parts") for p in args.parts.split(";")]
    with _flag("--parts"):
        parts = disjoint_parts(parts, coloring.n)
    params = RegimeParams(eps=args.eps, d=args.d, t=0)
    outcome = main2_classify(coloring, parts, params, reg_mode=args.reg_mode, seed=args.seed)
    emit(envelope("classification", outcome.as_dict(), manifest), args.out)
    return 0


def _bounded(kind, ok, bound: str):
    """An argparse type: a `kind` value for which `ok` holds, else "<bound>, got X"."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):  # the comparisons in `ok` also reject nan
            raise argparse.ArgumentTypeError(f"{bound}, got {text}")
        return value

    return parse


def _nonnegative(kind):
    """--budget-nodes, --budget-seconds, --lambda, --d: a value of at least 0."""
    return _bounded(kind, lambda v: v >= 0, "must be at least 0")


_CPUS = os.cpu_count() or 1
# --threads: a worker count between 1 and the machine's CPU count
_thread_count = _bounded(int, lambda v: 1 <= v <= _CPUS,
                         f"must be between 1 and {_CPUS} (the CPU count)")
# --instances, --n-max
_positive_int = _bounded(int, lambda v: v >= 1, "must be at least 1")
# --n: a board size the search takes
_board_size = _bounded(int, lambda v: 1 <= v <= MAX_VERTICES,
                       f"must be between 1 and {MAX_VERTICES}")


def _add_in(p) -> None:
    p.add_argument("--in", dest="infile", default="-")


def _add_budget(p) -> None:
    p.add_argument("--budget-nodes", type=_nonnegative(int), default=None,
                   help="search node cap (default RAMSEY_BUDGET_NODES or built-in)")
    p.add_argument("--budget-seconds", type=_nonnegative(float), default=None)


def _args_chi(p) -> None:
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)


def _args_count(p) -> None:
    p.add_argument("--pattern", required=True, help="C5, P4, K3, S3, ...")
    _add_in(p)


def _args_mult(p) -> None:
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=_board_size, required=True)
    p.add_argument("--resume-from", default=None, help="file holding a resume token")
    _add_budget(p)
    p.add_argument("--threads", type=_thread_count, default=1)


def _args_ramsey_number(p) -> None:
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-max", type=_positive_int, default=12)
    _add_budget(p)


def _args_threshold(p) -> None:
    _args_ramsey_number(p)
    p.add_argument("--threads", type=_thread_count, default=1)


def _args_extremal_lambda(p) -> None:
    _add_in(p)
    p.add_argument("--mode", choices=("exact", "local-search"), default="exact")
    p.add_argument("--seed", type=int, default=None)


def _args_case2(p) -> None:
    _add_in(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--A", dest="a_set", required=True, help="vertex set, e.g. 0-4 or 0,2,5")
    p.add_argument("--lambda", dest="lam", type=_nonnegative(float), required=True)


def _args_verify_claim(p) -> None:
    p.add_argument("--claim", required=True,
                   choices=("common-neighbor", "bridged-cliques", "alternating", "two-matching"))
    p.add_argument("--instances", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", action="store_true")


def _args_verify_lemma(p) -> None:
    p.add_argument("--lemma", required=True,
                   choices=("countpath2-p1", "countpath2-p2", "countcycle1"))
    p.add_argument("--instances", type=_positive_int, default=None,
                   help="override instances per cell")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", action="store_true")


def _args_classify(p) -> None:
    _add_in(p)
    p.add_argument("--parts", required=True, help='"auto-random:M=8" or "0-4;5-8"')
    p.add_argument("--eps", type=_bounded(float, lambda v: 0 < v < 1, "must lie in (0, 1)"),
                   required=True)
    p.add_argument("--d", type=_nonnegative(float), default=0.0,
                   help="reduced density floor (default 12*sqrt(eps))")
    p.add_argument("--reg-mode", choices=("exact", "randomized"), default="exact")
    p.add_argument("--seed", type=int, default=None)


# name -> (help, handler, the function adding its arguments before --out)
SUBCOMMANDS = {
    "chi": ("emit the two-blue-cliques coloring chi(a,b) as kcol", _cmd_chi, _args_chi),
    "count": ("monochromatic copy counts of a pattern in a kcol coloring", _cmd_count, _args_count),
    "encode": ("JSON {n, red_pairs} -> kcol", _cmd_encode, _add_in),
    "decode": ("kcol -> JSON edge lists", _cmd_decode, _add_in),
    "mult": ("exact minimum monochromatic copies over colorings of K_n", _cmd_mult, _args_mult),
    "ramsey-number": ("least n forcing a monochromatic copy", _cmd_ramsey_number,
                      _args_ramsey_number),
    "threshold": ("multiplicity at the ramsey number", _cmd_threshold, _args_threshold),
    "extremal-lambda": ("smallest extremality parameter of a coloring", _cmd_extremal_lambda,
                        _args_extremal_lambda),
    "case2": ("certified monochromatic cycle bound for a near-extremal coloring", _cmd_case2,
              _args_case2),
    "verify-claim": ("seeded structured-instance battery for one claim verifier",
                     _cmd_verify_claim, _args_verify_claim),
    "verify-lemma": ("measured-defect verification grid for a counting bound",
                     _cmd_verify_lemma, _args_verify_lemma),
    "classify": ("ring-structured vs near-extremal classification", _cmd_classify,
                 _args_classify),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `ramsey` parser with every subcommand, or with `command` alone.

    A one-subcommand parser gives that subcommand's help, errors and
    parsed arguments exactly as the full parser does, in a quarter of the
    build time.
    """
    top = argparse.ArgumentParser(
        prog="ramsey",
        description="Exact threshold Ramsey multiplicity toolkit for small graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_arguments) in SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.add_argument("--out", default=None, help="output file (default stdout)")
            p.set_defaults(func=handler)
    return top


@functools.cache
def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """One parser per subcommand per process; parse_args leaves it unchanged."""
    return build_parser(command)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args, extra = _parser(command).parse_known_args(argv)
    if extra:
        # the top-level usage line of this error lists every subcommand
        _parser(None).parse_args(argv)
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
