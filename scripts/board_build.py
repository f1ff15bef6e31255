#!/usr/bin/env python3
"""Time the copy-table build of a few search boards.

For each board, the least of --repeat runs of search.enumerate_copy_masks,
and of search._board (seed, copy table and engine, from a cleared board
cache), and the build's tracemalloc peak beyond the table it returns. The
pattern's template is built once before the runs, as every board after a
pattern's first finds it. Timings are printed, never checked: they depend
on the machine.

Usage: python3 scripts/board_build.py [--repeat 9] [--boards C7@13,P8@11,P7@9,C4@40]
"""

import argparse
import gc
import time
import tracemalloc

from ramseykit import search
from ramseykit.graphs import PatternGraph

BOARDS = "C7@13,P8@11,P7@9,C4@40"


def least(repeat: int, run) -> float:
    """The least wall time of `repeat` calls of run(), in seconds."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=9)
    ap.add_argument("--boards", default=BOARDS, help="comma-separated PATTERN@n")
    args = ap.parse_args()
    for board in args.boards.split(","):
        label, _, size = board.partition("@")
        h, n = PatternGraph.parse(label), int(size)
        search._local_copies(h)
        build = least(args.repeat, lambda: search.enumerate_copy_masks(h, n))

        def fresh_board():
            search._board.cache_clear()
            search._board(h, n)

        whole = least(args.repeat, fresh_board)
        search._board.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            masks = search.enumerate_copy_masks(h, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = sum(column.nbytes for column in masks.columns)
        print(f"{label}@{n}: {len(masks):,} copies, a {table / 2**20:.1f} MiB table; "
              f"enumerate_copy_masks {build * 1e3:.1f} ms, _board {whole * 1e3:.1f} ms "
              f"(least of {args.repeat}); build peak {(peak - table) / 2**20:.2f} MiB "
              f"beyond the table")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
