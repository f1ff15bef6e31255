#!/usr/bin/env python3
"""Reproduce the small exact Ramsey values: r(H), m(H) = M(H, r(H)) and the
witness colorings, for a battery of paths, stars, cliques and cycles.

Each row is one search.threshold_multiplicity call, which searches the
r(H) board once for a zero coloring and once for the minimum on one
engine. A row whose search stopped on the budget is marked PARTIAL. Each
row gives the nodes of its minimum search, and a last line their total:
node counts are deterministic, so the total is the same on every machine.
The node budget is --budget-nodes, else RAMSEY_BUDGET_NODES; a bad value
exits 2 before any search.

Usage: python3 scripts/small_values.py [--n-max 10] [--out table.json]
"""

import argparse
import json
import sys
import time

from ramseykit.errors import BudgetExceededError, PreconditionError
from ramseykit.graphs import PatternGraph, encode, mono_counts
from ramseykit.search import SearchBudget, threshold_multiplicity

PATTERNS = ["K2", "S2", "S3", "P3", "P4", "P5", "P6", "P7", "K3", "C4", "C5", "C6"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--budget-nodes", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    try:
        budget = (SearchBudget.from_env() if args.budget_nodes is None
                  else SearchBudget(max_nodes=args.budget_nodes))
    except PreconditionError as err:  # a bad RAMSEY_BUDGET_NODES
        print(f"small_values.py: {err}", file=sys.stderr)
        return 2

    rows = []
    total_nodes = 0
    for label in PATTERNS:
        h = PatternGraph.parse(label)
        t0 = time.monotonic()
        try:
            rep = threshold_multiplicity(h, budget, n_max=args.n_max)
        except BudgetExceededError as err:  # the zero search stopped on the budget
            print(f"{label:>4}: PARTIAL, {err}")
            continue
        except PreconditionError as err:  # r(H) above --n-max
            print(f"{label:>4}: {err}")
            continue
        elapsed = time.monotonic() - t0
        check = sum(mono_counts(rep.witness, h))
        status = "exact" if rep.exact else "PARTIAL"
        total_nodes += rep.stats.nodes
        print(
            f"{label:>4}: r = {rep.n:2d}   m = {rep.value:5d}   "
            f"[{status}, witness recount {check}, {rep.stats.nodes} nodes, {elapsed:.2f}s]"
        )
        rows.append(
            {
                "pattern": label,
                "ramsey_number": rep.n,
                "threshold_multiplicity": rep.value,
                "exact": rep.exact,
                "witness_kcol": encode(rep.witness),
                "search_nodes": rep.stats.nodes,
                "seconds": round(elapsed, 3),
            }
        )
    print(f"total search nodes = {total_nodes}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
