#!/usr/bin/env python3
"""Run the full measured-parameter verification grids for the three
counting bounds and write one JSON report per lemma.

Usage: python3 scripts/lemma_grid.py --seed 2026 [--instances 100] [--out-dir reports]
"""

import argparse
import dataclasses
import json
import pathlib
import time

from ramseykit.regular import GridSpec, verify_counting_lemma

LEMMAS = ("countpath2-p1", "countpath2-p2", "countcycle1")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--instances", type=int, default=None, help="per cell override")
    ap.add_argument("--out-dir", default="lemma_reports")
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    bad = 0
    for lemma in LEMMAS:
        spec = GridSpec.default(lemma)
        if args.instances:
            spec = dataclasses.replace(spec, instances_per_cell=args.instances)
        t0 = time.monotonic()
        report = verify_counting_lemma(lemma, args.seed, spec)
        tally = report.tally()
        bad += tally.get("FAIL", 0)
        path = out_dir / f"{lemma}.json"
        with open(path, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
        print(f"{lemma:>14}: {tally} in {time.monotonic()-t0:.1f}s -> {path}")
    print("FAIL rows total:", bad)
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
