"""Exhaustive-search soundness: pruned search vs unpruned enumeration,
known Ramsey numbers, budget and resume semantics."""

import gc
import hashlib
import tracemalloc
from math import comb, inf

import numpy as np
import pytest

from ramseykit import search
from ramseykit.errors import PreconditionError
from ramseykit.graphs import PatternGraph, SimpleGraph, mono_counts
from ramseykit.search import (
    MAX_COPY_BYTES,
    SearchBudget,
    VECTOR_MIN_MASKS,
    _Engine,
    _canonicity_rows,
    _coloring_to_bits,
    _copy_rows,
    _group_by_last,
    _local_copies,
    _mono_count,
    _require_board,
    _require_template,
    _row_bytes,
    _seed_counts,
    _seed_incumbent,
    _star_table,
    enumerate_copy_masks,
    find_zero_coloring,
    multiplicity,
    ramsey_number,
    threshold_multiplicity,
)

from .helpers import (
    ReferenceEngine,
    mask_rows_as_ints,
    multiplicity_bruteforce,
    reference_by_last,
    reference_copy_masks,
    reference_local_copies,
    reference_sigmas,
    resume_token,
    seed_colorings,
)

P = PatternGraph


class TestSoundness:
    CASES = [
        (P.complete(3), 5),
        (P.path(3), 5),
        (P.path(4), 5),
        (P.path(5), 5),
        (P.star(2), 4),
        (P.star(3), 5),
        (P.cycle(4), 5),
        (P.cycle(5), 5),
        (P.complete(3), 6),  # one six-vertex board against the full 2^15 scan
    ]

    @pytest.mark.parametrize("h,n", CASES, ids=lambda x: getattr(x, "kind", x))
    def test_pruned_equals_bruteforce(self, h, n):
        expected, _ = multiplicity_bruteforce(h, n)
        report = multiplicity(h, n)
        assert report.exact
        assert report.value == expected

    def test_witness_attains_value(self):
        for h, n in [(P.complete(3), 6), (P.path(4), 6), (P.star(3), 6)]:
            report = multiplicity(h, n)
            assert sum(mono_counts(report.witness, h)) == report.value

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_isolated_vertices_count_as_subgraphs(self, n):
        # claw plus isolated vertex 4: 16 edge-set copies at n = 7, each
        # completed by any of the 3 vertices the claw misses
        h = P.explicit(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3)]))
        report = multiplicity(h, n)
        assert report.exact
        assert report.value == sum(mono_counts(report.witness, h))
        assert report.value == {4: 0, 5: 0, 6: 12, 7: 48}[n]
        assert multiplicity(h, n, threads=2).value == report.value
        assert (find_zero_coloring(h, n)[0] is not None) == (report.value == 0)

    def test_symmetry_pruning_changes_nothing(self):
        h, n = P.path(4), 6
        masks = enumerate_copy_masks(h, n)
        engine = _Engine(masks, n)
        engine.tied = 0  # no sigma starts tied, so none is checked
        best, _, stats, pending = engine.run([], len(masks) + 1, None, inf)
        assert pending == [] and stats.pruned_symmetry == 0
        report = multiplicity(h, n)
        assert report.stats.pruned_symmetry > 0
        assert best == report.value

    def test_copy_mask_counts(self):
        # number of distinct copies of C5 in K9 = C(9,5) * 12
        assert len(enumerate_copy_masks(P.cycle(5), 9)) == 126 * 12
        assert len(enumerate_copy_masks(P.path(6), 8)) == 28 * 360
        assert len(enumerate_copy_masks(P.cycle(7), 13)) == comb(13, 7) * 360

    @pytest.mark.parametrize("n,dtypes", [
        (4, ["uint8"]),  # 6 edges
        (6, ["uint16"]),  # 15
        (8, ["uint32"]),  # 28
        (11, ["uint64"]),  # 55
        (12, ["uint64", "uint8"]),  # 66
        (13, ["uint64", "uint16"]),  # 78
        (14, ["uint64", "uint32"]),  # 91
        (20, ["uint64"] * 3),  # 190
    ])
    def test_each_column_takes_the_narrowest_dtype_of_its_edges(self, n, dtypes):
        masks = enumerate_copy_masks(P.path(3), n)
        assert [str(column.dtype) for column in masks.columns] == dtypes
        assert _row_bytes(n) == sum(column.itemsize for column in masks.columns)

    def test_the_c7_table_is_ten_bytes_a_row(self):
        # 617,760 copies in a uint64 and a uint16 column
        masks = enumerate_copy_masks(P.cycle(7), 13)
        assert sum(column.nbytes for column in masks.columns) == 6_177_600

    # C(12,2) = 66 and C(13,2) = 78 edges need two words per mask
    MASK_CASES = [
        (P.complete(3), 6),
        (P.complete(2), 3),
        (P.complete(4), 12),
        (P.star(1), 4),
        (P.star(3), 7),
        (P.path(5), 7),
        (P.cycle(5), 9),
        (P.cycle(4), 12),
        (P.cycle(7), 13),
        (P.explicit(SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])), 6),
        # vertex 4 is isolated: its copies must not repeat across subsets
        (P.explicit(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3)])), 7),
        (P.explicit(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3)])), 4),
    ]

    @pytest.mark.parametrize("h,n", MASK_CASES, ids=lambda x: getattr(x, "kind", x))
    def test_copy_masks_match_reference(self, h, n):
        masks = enumerate_copy_masks(h, n)
        assert len(masks.columns) == -(-comb(n, 2) // 64)
        assert sorted(mask_rows_as_ints(masks)) == reference_copy_masks(h, n)

    @pytest.mark.parametrize("h,n", MASK_CASES, ids=lambda x: getattr(x, "kind", x))
    def test_rows_come_in_last_edge_order(self, h, n):
        masks = enumerate_copy_masks(h, n)
        assert all(column.flags.c_contiguous for column in masks.columns)
        rows = mask_rows_as_ints(masks)
        # the reference buckets keep row order, so read in turn they give the
        # rows back only if the rows are sorted by last edge
        buckets = reference_by_last(masks, comb(n, 2))
        assert [m for bucket in buckets for m in bucket] == rows
        assert np.diff(masks.starts).tolist() == [len(bucket) for bucket in buckets]

    @pytest.mark.parametrize("h,n", MASK_CASES + [(P.complete(3), 20), (P.path(3), 30)],
                             ids=lambda x: getattr(x, "kind", x))
    def test_buckets_match_reference(self, h, n):
        # 190 and 435 edges: three and seven words per mask
        masks = enumerate_copy_masks(h, n)
        want = reference_by_last(masks, comb(n, 2))
        scratch = []
        for d, (bucket, rows) in enumerate(zip(_group_by_last(masks, comb(n, 2)), want)):
            if len(rows) < VECTOR_MIN_MASKS:
                assert bucket == rows
                continue
            hit, spare, words, keys = bucket
            assert len(words) == len(keys) == d // 64 + 1
            assert all(key.shape == () and key.dtype == word.dtype
                       for key, word in zip(keys, words))
            assert all(word.flags.c_contiguous for word in words)
            assert [word.dtype for word in words] == [c.dtype for c in masks.columns[:len(words)]]
            got = [sum(int(x) << 64 * w for w, x in enumerate(row)) for row in zip(*words)]
            assert got == rows
            assert len(hit) == len(spare) == len(rows)
            # hit holds column 0's words, spare the OR of the later ones
            assert hit.dtype == masks.columns[0].dtype
            assert all(spare.itemsize >= word.itemsize for word in words[1:])
            scratch.append((hit, spare))
        # every bucket writes into views of one scratch pair, sized to the largest
        if scratch:
            size = max(len(rows) for rows in want)
            pair = scratch[0][0].base, scratch[0][1].base
            assert [len(a) for a in pair] == [size, size] and pair[0] is not pair[1]
            for hit, spare in scratch:
                assert hit.base is pair[0] and spare.base is pair[1]


TRIANGLE_AND_PENDANT = P.explicit(SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
CLAW_AND_ISOLATED = P.explicit(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3)]))
MATCHING = P.explicit(SimpleGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))


class TestCopyTableParity:
    """Starts, dtypes and each bucket's rows, as a multiset, against the set-based reference."""

    CASES = [
        # one word (n = 8), two (12, 13), three (20) and seven (30)
        (P.path(4), 8), (P.path(5), 12), (P.path(3), 30),
        (P.cycle(5), 8), (P.cycle(4), 13), (P.cycle(6), 12),
        (P.complete(3), 20), (P.complete(4), 12),
        (P.star(1), 8), (P.star(1), 30), (P.star(3), 13), (P.star(4), 20),
        (CLAW_AND_ISOLATED, 8), (CLAW_AND_ISOLATED, 13),
        (TRIANGLE_AND_PENDANT, 12), (TRIANGLE_AND_PENDANT, 20), (MATCHING, 8),
        # k' = n
        (P.path(5), 5), (P.cycle(6), 6), (P.complete(3), 3), (P.star(3), 4), (MATCHING, 6),
        # k' > n, and the claw's k' = 4 = n below the order 5 of its pattern
        (P.cycle(7), 6), (P.star(5), 5), (P.complete(4), 3), (CLAW_AND_ISOLATED, 4),
    ]

    @pytest.mark.parametrize("h,n", CASES, ids=lambda x: x.label() if hasattr(x, "kind") else x)
    def test_buckets_hold_the_reference_copies(self, h, n):
        masks = enumerate_copy_masks(h, n)
        E = comb(n, 2)
        want = [[] for _ in range(E)]
        for mask in reference_copy_masks(h, n):
            want[mask.bit_length() - 1].append(mask)
        assert masks.starts == np.cumsum([0] + [len(bucket) for bucket in want]).tolist()
        assert [c.dtype for c in masks.columns] == search._column_dtypes(n)
        assert len({len(c) for c in masks.columns}) == 1
        rows = mask_rows_as_ints(masks)
        for d, bucket in enumerate(want):
            assert sorted(rows[masks.starts[d]:masks.starts[d + 1]]) == bucket


def _ladder_fingerprint(h, n, max_nodes):
    report = multiplicity(h, n, SearchBudget(max_nodes=max_nodes))
    stats = report.stats
    token = report.resume_token and hashlib.sha256(report.resume_token.encode()).hexdigest()
    return (report.value, report.exact, stats.nodes, stats.leaves, stats.pruned_bound,
            stats.pruned_symmetry, "".join(map(str, _coloring_to_bits(report.witness))), token)


class TestLadderFingerprints:
    """Value, counters, witness and token on the benchmark ladder, pinned from the
    builder that wrote the rows of a bucket in template-then-subset order: no
    search reads the order of the rows inside a bucket."""

    @pytest.mark.parametrize("h,n,max_nodes,want", [
        (P.cycle(5), 9, None, (12, True, 10485, 1, 2297, 2920,
                               "000000000001111111110111110011111000", None)),
        (P.path(6), 8, None, (300, True, 29395, 3, 7779, 6916,
                              "0000000000001110111111011111", None)),
        (P.complete(3), 9, None, (12, True, 56229, 3, 10247, 8993,
                                  "000000001111011111010111100011110000", None)),
        (P.cycle(6), 8, None, (10, True, 4601, 9, 445, 1104,
                               "0000000000001111101111101110", None)),
        (P.path(5), 7, None, (96, True, 809, 3, 14, 232, "000000011101110111100", None)),
        (P.cycle(4), 7, None, (5, True, 695, 13, 52, 197, "000011011010101110100", None)),
        (P.path(4), 8, None, (160, True, 5839, 4, 77, 1373,
                              "0000000011110111110101111000", None)),
        (P.cycle(7), 13, 5000, (
            360, False, 5000, 1, 906, 1581,
            "000000000000000000000011111111111110111111100111111100011111110000111111100000",
            "8e2032962fce01abcbff49b9ec298d2240628f6405955b16771b905f1c180ace")),
    ], ids=lambda x: x.label() if hasattr(x, "kind") else None)
    def test_ladder(self, h, n, max_nodes, want):
        assert _ladder_fingerprint(h, n, max_nodes) == want

    def test_c7_on_13_zero_search(self):
        witness, stats, settled = find_zero_coloring(P.cycle(7), 13)
        assert (witness, settled) == (None, True)
        assert (stats.nodes, stats.leaves, stats.pruned_bound, stats.pruned_symmetry) == (
            16291, 0, 3344, 4802)


def goodman_k3(n: int) -> int:
    """M(K3, n) = C(n,3) - floor((n/2) floor((n-1)^2/4)) (Goodman, 1959)."""
    return comb(n, 3) - (n * ((n - 1) ** 2 // 4)) // 2


class TestKernelFingerprints:
    """Values and search counters pinned from runs of the all-Python-int kernel."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_goodman_triangles(self, n):
        report = multiplicity(P.complete(3), n)
        assert report.exact and report.value == goodman_k3(n)
        assert sum(mono_counts(report.witness, P.complete(3))) == report.value

    def test_p6_on_8(self):
        report = multiplicity(P.path(6), 8)
        stats = report.stats
        assert (report.value, report.exact) == (300, True) and type(report.value) is int
        assert (stats.nodes, stats.pruned_bound, stats.pruned_symmetry) == (29395, 7779, 6916)

    def test_k3_on_9(self):
        report = multiplicity(P.complete(3), 9)
        stats = report.stats
        assert (report.value, report.exact) == (goodman_k3(9), True)
        assert (stats.nodes, stats.pruned_bound, stats.pruned_symmetry) == (56229, 10247, 8993)

    def test_c7_on_13_budget(self):
        report = multiplicity(P.cycle(7), 13, SearchBudget(max_nodes=5000))
        stats = report.stats
        assert (report.value, report.exact) == (360, False) and type(report.value) is int
        assert (stats.pruned_bound, stats.pruned_symmetry) == (906, 1581)
        # the search stops on the path below, before the red branch of edge
        # 40; the token lists that node's two branches, then the blue branch
        # of every ancestor on red
        path = "0000000000000000000110111001101111111011"
        pending = [path + "0", path + "1"]
        pending += [path[:i] + "1" for i in range(len(path) - 1, 0, -1) if path[i] == "0"]
        witness = "000000000000000000000011111111111110111111100111111100011111110000111111100000"
        assert report.resume_token == (
            f"ramsey-resume/2;pattern=C7;n=13;witness={witness};pending={','.join(pending)}"
        )
        assert sum(mono_counts(report.witness, P.cycle(7))) == 360

    # 2,500 stops at a blue child, decided with its red sibling in one step
    # before the red subtree; 2,501 stops at a red child
    @pytest.mark.parametrize("cut,branch", [(2500, "1"), (2501, "0")])
    def test_c7_on_13_cut_between_siblings_resumes_as_one_run(self, cut, branch):
        h, n = P.cycle(7), 13
        straight = multiplicity(h, n, SearchBudget(max_nodes=5000))
        first = multiplicity(h, n, SearchBudget(max_nodes=cut))
        assert first.resume_token.partition("pending=")[2].split(",")[0][-1] == branch
        rest = multiplicity(h, n, SearchBudget(max_nodes=5000 - cut),
                            resume_token=first.resume_token)
        legs = zip(*[(s.nodes, s.pruned_bound, s.pruned_symmetry)
                     for s in (first.stats, rest.stats)])
        assert tuple(map(sum, legs)) == (5000, 906, 1581)
        assert (rest.value, rest.resume_token) == (360, straight.resume_token)
        assert type(rest.value) is int

    def test_c8_on_11_zero_search(self):
        # every board below 11 is settled by a seed; K_11 has no coloring without a mono C8
        report = ramsey_number(P.cycle(8), 11)
        assert (report.value, report.exact) == (11, True) and type(report.value) is int
        assert report.per_n[-1] == {"n": 11, "zero_coloring_exists": False, "settled": True,
                                    "nodes": 88279}
        assert all(type(row["nodes"]) is int for row in report.per_n)


def _search_fingerprint(report):
    stats = report.stats
    return (report.value, report.witness, report.exact, report.resume_token,
            stats.nodes, stats.leaves, stats.pruned_bound, stats.pruned_symmetry)


class TestCanonicityCheck:
    """The flat loop prunes exactly the nodes the recursive full-rescan engine prunes."""

    @pytest.mark.parametrize("h,n,max_nodes", [
        (P.complete(3), 8, None),
        (P.cycle(5), 9, None),
        (P.path(5), 7, None),
        (P.path(6), 8, None),
        (P.cycle(7), 13, 5000),
        # stops at the root, early, and deep in the tree
        (P.path(6), 8, 5),
        (P.path(6), 8, 100),
        (P.path(6), 8, 3000),
        (P.path(6), 8, 10_000),
        # star boards stopped before and after an improving frontier
        (P.path(5), 7, 100),
        (P.path(5), 7, 300),
        (P.complete(3), 7, 200),
    ], ids=lambda x: getattr(x, "kind", x))
    def test_matches_full_scan(self, monkeypatch, h, n, max_nodes):
        budget = SearchBudget(max_nodes=max_nodes)
        incremental = multiplicity(h, n, budget)
        monkeypatch.setattr(search, "_Engine", ReferenceEngine)
        # the board is built again on the reference engine, and not kept
        search._board.cache_clear()
        full_scan = multiplicity(h, n, budget)
        search._board.cache_clear()
        assert _search_fingerprint(incremental) == _search_fingerprint(full_scan)

    @staticmethod
    def _prefix_runs(prefix, max_nodes):
        h, n = P.path(6), 8
        masks = enumerate_copy_masks(h, n)
        runs = []
        for engine in (_Engine, ReferenceEngine):
            best, bits, stats, pending = engine(masks, n).run(prefix, 400, None, max_nodes)
            stats = stats.as_dict()
            del stats["elapsed_seconds"]
            runs.append((best, bits, pending, stats))
        return runs

    def test_forced_prefix_matches_full_scan(self):
        runs = self._prefix_runs([0, 1, 1, 0], inf)
        assert runs[0] == runs[1]
        assert runs[0][3]["pruned_symmetry"] > 0

    # the subtree below [0, 0, 1, 0] has 4,297 nodes at this cap, counted
    # from the prefix's last edge; a stop at 0 nodes comes at that edge and
    # hands the prefix back whole
    @pytest.mark.parametrize("max_nodes", [0, 3, 100, 3000])
    def test_forced_prefix_stops_match_full_scan(self, max_nodes):
        runs = self._prefix_runs([0, 0, 1, 0], max_nodes)
        assert runs[0] == runs[1]
        assert runs[0][2]


def _reference_runs(n):
    """Each sigma's run read off its whole edge map: {row d: its pairs (e, sigma(e)), e < sigma(e)}.

    A pair joins the row of the running maximum over the pairs up to it.
    """
    runs = []
    for moved, sigma in reference_sigmas(n):
        run, reach = {}, -1
        for e in moved:
            reach = max(reach, e, sigma[e])
            if e < sigma[e]:
                run.setdefault(reach, []).append((e, sigma[e]))
        runs.append(run)
    return runs


class TestCanonicityTable:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_one_comparison_per_sigma_against_the_new_edge(self, n):
        # each row a sigma's run reaches adds a first pair against edge d itself
        want = [{} for _ in range(comb(n, 2))]
        for s, run in enumerate(_reference_runs(n)):
            for d, ((e, f), *_) in run.items():
                assert f == d
                want[d][e] = want[d].get(e, 0) | 1 << s
        got = [{e.bit_length() - 1: ~keep for e, keep in against}
               for _, against, _, _ in _canonicity_rows(n)]
        assert got == want
        assert [bits for bits, *_ in _canonicity_rows(n)] == [sum(row.values()) for row in want]

    @pytest.mark.parametrize("n", range(2, 14))
    def test_double_rows_follow_each_run(self, n):
        runs = _reference_runs(n)
        # a transposition adds one pair per row
        assert all(len(pairs) == 1 for run in runs[:comb(n, 2)] for pairs in run.values())
        assert len(runs) == comb(n, 2) + comb(n - 2, 2)
        want = [[] for _ in range(comb(n, 2))]
        for s, run in enumerate(runs[comb(n, 2):], comb(n, 2)):
            # 2n - 7 rows, one of which adds a second pair below the row
            assert sorted(len(pairs) for pairs in run.values()) == [1] * (2 * n - 8) + [2]
            for d, (_, *extra) in run.items():
                assert all(f < d for _, f in extra)
                want[d] += [(1 << s, 1 << e2 | 1 << f, 1 << e2) for e2, f in extra]
        got = [(extra_bits, extras) for _, _, extra_bits, extras in _canonicity_rows(n)]
        assert got == [(sum(s for s, _, _ in row), row) for row in want]

    # digests of repr(_canonicity_rows(n)) from the builder that made a fresh
    # int 1 << e for every entry
    @pytest.mark.parametrize("n,digest", [
        (16, "cf538ba71cbb500828c149847574af174e45998bd46542072364a8d8f93e7d34"),
        (24, "35032584c75a3b982f9f6f54f4fffca04ae73a28091cb0a314a6339dc642464e"),
    ])
    def test_rows_equal_those_of_one_int_per_entry(self, n, digest):
        assert hashlib.sha256(repr(_canonicity_rows(n)).encode()).hexdigest() == digest

    def test_entries_share_one_int_per_edge(self):
        seen = {}
        for _, against, _, extras in _canonicity_rows(12):
            for e, _ in against:
                assert seen.setdefault(e, e) is e
            for _, _, e2 in extras:
                assert seen.setdefault(e2, e2) is e2
        assert len(seen) == comb(12, 2) - 1  # every edge but the last is compared

    def test_the_engine_of_a_64_vertex_board_holds_at_most_35_mib(self):
        # with an int per entry the canonicity table alone held 49.4 MiB
        masks = enumerate_copy_masks(P.path(2), 64)
        gc.collect()
        tracemalloc.start()
        try:
            engine = _Engine(masks, 64)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert engine.E == comb(64, 2)
        assert held <= 35 * 2**20


class TestTemplate:
    @pytest.mark.parametrize("h", [
        P.complete(2), P.complete(3), P.complete(5),
        P.star(1), P.star(2), P.star(5),
        P.path(2), P.path(3), P.path(7),
        P.cycle(3), P.cycle(4), P.cycle(8),
        # isolated vertices: the claw plus vertex 4, and P3 on 1, 3, 5 of six vertices
        P.explicit(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3)])),
        P.explicit(SimpleGraph.from_edges(6, [(1, 3), (3, 5)])),
        # automorphisms: a triangle with a pendant edge, and a perfect matching
        P.explicit(SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])),
        P.explicit(SimpleGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])),
    ], ids=P.label)
    def test_matches_reference(self, h):
        k, local = _local_copies(h)
        assert (k, [tuple(row) for row in local.tolist()]) == reference_local_copies(h)


class TestSeeds:
    @pytest.mark.parametrize("h,n", [
        (P.cycle(7), 7),
        (P.cycle(7), 12),
        (P.cycle(7), 13),
        (P.cycle(5), 9),
        (P.path(6), 8),
        (P.complete(3), 9),
        (P.star(3), 7),
        (P.explicit(SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])), 7),
    ], ids=lambda x: getattr(x, "kind", x))
    def test_mask_counts_pick_the_first_minimum_of_mono_counts(self, h, n):
        seeds = seed_colorings(n)
        counts = [sum(mono_counts(c, h)) for c in seeds]
        first = counts.index(min(counts))
        assert _seed_incumbent(h, n) == (counts[first], seeds[first])

    @pytest.mark.parametrize("h,n", [(P.cycle(7), 13), (P.complete(3), 9), (P.star(40), 64)],
                             ids=["C7@13", "K3@9", "S40@64"])
    def test_only_the_chosen_seed_is_built(self, monkeypatch, h, n):
        from ramseykit import extremal

        chi, built = extremal.chi, []

        def recording(a, b):
            built.append((a, b))
            return chi(a, b)

        monkeypatch.setattr(extremal, "chi", recording)
        count, seed = _seed_incumbent(h, n)
        assert len(built) <= 1
        assert sum(mono_counts(seed, h)) == count == min(_seed_counts(h, n))


class TestSeedCounts:
    # a board below the pattern's order never reaches the seeds
    @pytest.mark.parametrize("h,n", [(h, n) for h, n in TestSoundness.MASK_CASES if n >= h.order]
                             + [(P.cycle(7), 12),
                                # an edge and a P3: two components
                                (P.explicit(SimpleGraph.from_edges(5, [(0, 1), (2, 3), (3, 4)])), 8)],
                             ids=lambda x: getattr(x, "kind", x))
    def test_closed_form_equals_mask_counts(self, h, n):
        masks = enumerate_copy_masks(h, n)
        want = [_mono_count(masks, _coloring_to_bits(c)) for c in seed_colorings(n)]
        assert _seed_counts(h, n) == want


def _recorded_enumerations(monkeypatch):
    """Record the board size of every copy-mask enumeration from a cleared board cache."""
    boards = []

    def recording(h, n):
        boards.append(n)
        return enumerate_copy_masks(h, n)

    monkeypatch.setattr(search, "enumerate_copy_masks", recording)
    search._board.cache_clear()
    return boards


class TestBoardBuilds:
    def test_a_board_a_seed_settles_builds_no_masks(self, monkeypatch):
        boards = _recorded_enumerations(monkeypatch)
        rn = ramsey_number(P.cycle(7), 12)
        assert (rn.value, rn.exact) == (None, True)
        assert boards == []

    def test_a_seed_settled_multiplicity_returns_the_seed(self, monkeypatch):
        boards = _recorded_enumerations(monkeypatch)
        report = multiplicity(P.cycle(7), 12)
        stats = report.stats
        assert (report.value, report.exact, stats.nodes, stats.leaves) == (0, True, 0, 1)
        assert sum(mono_counts(report.witness, P.cycle(7))) == 0
        assert boards == []

    @pytest.mark.parametrize("search_board", [
        lambda h, n: multiplicity(h, n, SearchBudget(max_nodes=5000)),
        lambda h, n: find_zero_coloring(h, n),
    ], ids=["multiplicity", "find_zero_coloring"])
    def test_a_copy_table_that_cannot_fit_is_refused(self, monkeypatch, search_board):
        # C(64, 4) * 12 rows of 252 bytes, and no seed settles the board:
        # chi(32, 32) has a blue P4
        boards = _recorded_enumerations(monkeypatch)
        with pytest.raises(PreconditionError, match="copies of P4: a copy table of 1,832 MiB, "
                                                    "more than the 256 MiB a search board"):
            search_board(P.path(4), 64)
        assert boards == []

    def test_a_board_a_seed_settles_is_never_refused(self, monkeypatch):
        # K_64 holds about 6.0e18 copies of S40, but on every board from
        # n = 41 up some chi(a, n - a) has largest monochromatic degree below 40
        boards = _recorded_enumerations(monkeypatch)
        rn = ramsey_number(P.star(40), 64)
        assert (rn.value, rn.exact) == (None, True)
        assert boards == []

    def test_the_template_is_built_once_per_pattern(self, monkeypatch):
        boards = _recorded_enumerations(monkeypatch)
        search._local_copies.cache_clear()
        assert ramsey_number(P.path(6), 8).value == 8
        assert search._local_copies.cache_info().misses == 1
        assert boards == [8]

    @pytest.mark.parametrize("search_board", [multiplicity, find_zero_coloring],
                             ids=["multiplicity", "find_zero_coloring"])
    def test_a_board_above_the_vertex_cap_is_refused(self, search_board):
        with pytest.raises(PreconditionError, match="board size 65 is outside 1..64"):
            search_board(P.path(3), 65)

    @pytest.mark.parametrize("h,n,size", [
        (P.path(4), 64, "7,624,512 copies of P4: a copy table of 1,832 MiB"),
        (P.cycle(5), 40, "7,896,096 copies of C5: a copy table of 738 MiB"),
    ], ids=["P4@64", "C5@40"])
    def test_the_cap_is_on_the_table_bytes(self, h, n, size):
        # both hold fewer than the 2^25 rows of a one-word table at the cap
        with pytest.raises(PreconditionError, match=size):
            _require_board(h, n)

    def test_a_large_table_under_the_cap_is_accepted(self):
        # C(64,4) rows of 31 uint64 words and a uint32: 153 MiB
        _require_board(P.complete(4), 64)

    @pytest.mark.parametrize("h,n", TestSoundness.MASK_CASES, ids=lambda x: getattr(x, "kind", x))
    def test_row_bound_covers_the_copy_table(self, h, n):
        assert _copy_rows(h, n) == len(enumerate_copy_masks(h, n))

    def test_the_benchmark_ladder_fits(self):
        ladder = [(P.cycle(5), 9), (P.path(6), 8), (P.complete(3), 10), (P.path(7), 9),
                  (P.cycle(7), 13), (P.path(8), 11)]
        size = max(_copy_rows(h, n) * _row_bytes(n) for h, n in ladder)
        assert size == comb(11, 8) * 20160 * 8 < MAX_COPY_BYTES

    @pytest.mark.parametrize("h,n,margin", [(P.cycle(7), 13, 1.0), (P.path(8), 11, 1.5),
                                            (P.cycle(4), 40, 3.5)],
                             ids=["C7@13", "P8@11", "C4@40"])
    def test_the_build_holds_little_beyond_its_table(self, h, n, margin):
        # a sort order or a whole word column of copies would be 5-80 MiB
        # here; beyond its table a build holds one 8,192-row chunk (0.7 MiB
        # on C7@13, 0.9 on P8@11) and a few tables of C(k',2) C(n,k')
        # entries: C4@40 has 13 columns and 91,390 subsets (3.0 MiB)
        gc.collect()
        tracemalloc.start()
        try:
            masks = enumerate_copy_masks(h, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(column.nbytes for column in masks.columns) <= margin * 2**20

    @pytest.mark.parametrize("search_board", [
        lambda h: multiplicity(h, 11),
        lambda h: find_zero_coloring(h, 11),
        _local_copies,
    ], ids=["multiplicity", "find_zero_coloring", "_local_copies"])
    def test_a_template_that_cannot_fit_is_refused_before_any_allocation(self, search_board):
        # P11's template build walks 11! vertex orders: about 1.6 GiB
        search._local_copies.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="copy template of P11 walks "
                                                        "39,916,800 vertex orders: 1,599 MiB"):
                search_board(P.path(11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("h", [P.path(10), P.cycle(11), P.complete(12), P.star(40)],
                             ids=P.label)
    def test_a_template_under_the_cap_is_accepted(self, h):
        # P10 needs 132 MiB; it is not built here, which takes about 12 s
        _require_template(h)

    def test_threshold_builds_the_ramsey_board_once(self, monkeypatch):
        boards = _recorded_enumerations(monkeypatch)
        report = threshold_multiplicity(P.cycle(5))
        assert (report.n, report.value, report.exact) == (9, 12, True)
        assert boards == [9]


class TestKnownValues:
    def test_ramsey_numbers(self):
        expected = {
            P.path(3): 3,
            P.path(4): 5,
            P.star(2): 3,
            P.star(3): 6,
            P.complete(2): 2,
            P.complete(3): 6,
        }
        for h, r in expected.items():
            assert ramsey_number(h, 9).value == r, h

    def test_ramsey_witness_is_zero_free(self):
        rn = ramsey_number(P.complete(3), 8)
        assert rn.witness_below.n == 5
        assert sum(mono_counts(rn.witness_below, P.complete(3))) == 0

    def test_threshold_values(self):
        assert threshold_multiplicity(P.complete(2)).value == 1
        assert threshold_multiplicity(P.star(2)).value == 1
        # derived by this suite's own brute force: M(P4, 5) over all 2^10 colorings
        assert multiplicity_bruteforce(P.path(4), 5)[0] == 10
        assert threshold_multiplicity(P.path(4)).value == 10

    def test_zero_below_threshold(self):
        assert multiplicity(P.cycle(5), 8).value == 0
        assert multiplicity(P.complete(3), 5).value == 0

    def test_monotone_in_n(self):
        for h in (P.complete(3), P.path(4)):
            values = [multiplicity(h, n).value for n in range(h.order, 8)]
            assert values == sorted(values)


class TestBudgets:
    def test_trivial_board_smaller_than_pattern(self):
        report = multiplicity(P.cycle(5), 3)
        assert report.value == 0 and report.exact

    def test_library_calls_do_not_read_the_env_budget(self, monkeypatch):
        # only the `ramsey` command and scripts/small_values.py read it; a
        # 40-node cap stops each of these searches
        def outcomes():
            mult = multiplicity(P.path(5), 7)
            _, zero_stats, exhaustive = find_zero_coloring(P.cycle(5), 9)
            rn = ramsey_number(P.cycle(5), 9)
            return (mult.exact, mult.stats.nodes, exhaustive, zero_stats.nodes, rn.exact,
                    rn.value, rn.per_n)

        monkeypatch.delenv("RAMSEY_BUDGET_NODES", raising=False)
        full = outcomes()
        assert full[:3] == (True, 809, True) and full[3] > 40
        monkeypatch.setenv("RAMSEY_BUDGET_NODES", "40")
        assert outcomes() == full

    def test_what_a_budget_leaves(self):
        budget = SearchBudget(max_nodes=100, max_seconds=2.0)
        assert budget.after(30, 0.5) == SearchBudget(70, 1.5)
        assert budget.after(130, 2.5) == SearchBudget(0, 0.0)
        assert SearchBudget(None, None).after(30, 0.5) == SearchBudget(None, None)

    def test_budget_exhaustion_flags_report(self):
        report = multiplicity(P.path(5), 7, SearchBudget(max_nodes=100))
        assert not report.exact
        assert report.resume_token is not None
        # the incumbent is still a real coloring's count
        assert sum(mono_counts(report.witness, P.path(5))) == report.value

    def test_resume_completes_to_exact_value(self):
        h = P.path(5)
        full = multiplicity(h, 7)
        partial = multiplicity(h, 7, SearchBudget(max_nodes=150))
        assert not partial.exact
        resumed = multiplicity(
            h, 7, SearchBudget(max_nodes=None), resume_token=partial.resume_token
        )
        assert resumed.exact
        assert resumed.value == full.value

    def test_short_legs_from_the_root_reach_the_exact_value(self):
        # each leg counts only the nodes it adds, so the legs sum to the
        # uninterrupted search's nodes
        h, n = P.path(5), 7
        full = multiplicity(h, n)
        token, nodes = None, 0
        for _ in range(100):
            leg = multiplicity(h, n, SearchBudget(max_nodes=200), resume_token=token)
            nodes += leg.stats.nodes
            if leg.exact:
                break
            assert leg.stats.nodes == 200 and leg.resume_token != token
            token = leg.resume_token
        assert (leg.value, leg.exact, nodes) == (96, True, full.stats.nodes)

    def test_short_legs_on_a_star_board_reach_the_exact_value(self):
        # K3@8 scores its last vertex's star: the legs still sum to one run
        h, n = P.complete(3), 8
        full = multiplicity(h, n)
        token, nodes = None, 0
        for _ in range(100):
            leg = multiplicity(h, n, SearchBudget(max_nodes=200), resume_token=token)
            nodes += leg.stats.nodes
            if leg.exact:
                break
            assert leg.stats.nodes == 200 and leg.resume_token != token
            token = leg.resume_token
        assert (leg.value, leg.exact, nodes) == (goodman_k3(n), True, full.stats.nodes)

    def test_parallel_prefix_split_matches(self):
        h = P.path(5)
        assert multiplicity(h, 7, threads=2).value == multiplicity(h, 7).value

    @pytest.mark.parametrize("token,problem", [
        ("abc", "characters other than 0 and 1"),
        ("0192", "characters other than 0 and 1"),
        ("0" * 11, "more than the 10 edges"),
        ("1000", "must start with 0"),
    ])
    def test_bad_resume_token_rejected(self, token, problem):
        # the bad bits sit in the pending field of an otherwise valid token
        with pytest.raises(PreconditionError, match=problem):
            multiplicity(P.path(4), 5, resume_token=resume_token(pending=token))

    def test_resumed_witness_is_recounted(self):
        # a token's witness counts for what it is, whatever leg wrote it: an
        # all-red witness of K_7 holds C(7,5) * 60 = 1260 copies of P5, the
        # seed does better, and the resumed run still reaches the minimum
        token = resume_token(pattern="P5", n=7, witness="0" * 21, pending="0")
        report = multiplicity(P.path(5), 7, resume_token=token)
        assert (report.value, report.exact) == (96, True)
        assert sum(mono_counts(report.witness, P.path(5))) == 96

    def test_zero_search_budget(self):
        w, stats, settled = find_zero_coloring(P.complete(3), 6, SearchBudget(max_nodes=5))
        assert w is None and not settled

    def test_bad_board(self):
        with pytest.raises(PreconditionError):
            multiplicity(P.complete(3), 0)

    def test_edgeless_pattern_rejected(self):
        with pytest.raises(PreconditionError, match="at least one edge"):
            multiplicity(P.complete(1), 4)
        with pytest.raises(PreconditionError, match="at least one edge"):
            ramsey_number(P.complete(1), 4)
        with pytest.raises(PreconditionError, match="at least one edge"):
            multiplicity(P.explicit(SimpleGraph.from_edges(3, [])), 5)


def _cut_and_resume(h, n, cut, threads=1):
    """Stop a search after `cut` nodes, then resume it from its token."""
    first = multiplicity(h, n, SearchBudget(max_nodes=cut), threads=threads)
    assert first.stats.nodes <= cut
    if first.exact:
        return first
    assert threads > 1 or first.stats.nodes == cut
    return multiplicity(h, n, SearchBudget(max_nodes=None), threads=threads,
                        resume_token=first.resume_token)


CLAW_PLUS_VERTEX = P.explicit(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3)]))


class TestResumeSweep:
    """A search cut at any node count resumes to the uninterrupted value.

    On these boards the first leg often improves on the seed before the cut,
    so a resume that dropped the incumbent would report too much.
    """

    @pytest.mark.parametrize("h,n,stride", [
        (P.path(5), 6, 1),
        (P.path(4), 6, 1),
        (P.complete(3), 7, 1),
        (P.path(5), 7, 97),
        (P.cycle(4), 7, 31),
        (P.star(3), 7, 31),
        (CLAW_PLUS_VERTEX, 7, 61),
    ], ids=["P5@6", "P4@6", "K3@7", "P5@7", "C4@7", "S3@7", "claw+K1@7"])
    def test_every_cut_resumes_to_the_full_value(self, h, n, stride):
        full = multiplicity(h, n)
        for i, cut in enumerate(range(0, full.stats.nodes, stride)):
            for threads in (1, 2) if i % 50 == 0 else (1,):
                resumed = _cut_and_resume(h, n, cut, threads)
                assert (resumed.value, resumed.exact) == (full.value, True), (cut, threads)
                assert sum(mono_counts(resumed.witness, h)) == full.value, (cut, threads)


def _takes_the_star_path(h, n):
    """Whether the search of h on K_n builds an engine that scores the last vertex's star."""
    return _seed_incumbent(h, n)[0] > 0 and _star_table(enumerate_copy_masks(h, n), n) is not None


SMALL_PATTERNS = ([P.complete(k) for k in range(2, 7)] + [P.path(k) for k in range(2, 7)]
                  + [P.cycle(k) for k in range(3, 7)] + [P.star(k) for k in range(1, 6)])
STAR_BOARDS = [(h, n) for h in SMALL_PATTERNS for n in range(h.order, 7)
               if _takes_the_star_path(h, n)]


class TestStarPath:
    """The last vertex's star, scored in batches, as if each frontier were scored at its visit."""

    def test_the_small_boards_include_the_searched_ones(self):
        labels = {f"{h.label()}@{n}" for h, n in STAR_BOARDS}
        assert {"K3@6", "P4@5", "P4@6", "P5@6", "C4@6", "S3@6"} <= labels

    @pytest.mark.parametrize("h,n", STAR_BOARDS, ids=lambda x: getattr(x, "kind", x))
    def test_values_match_bruteforce(self, h, n):
        expected, _ = multiplicity_bruteforce(h, n)
        report = multiplicity(h, n)
        assert (report.value, report.exact) == (expected, True)
        assert sum(mono_counts(report.witness, h)) == expected

    @pytest.mark.parametrize("h,n,max_nodes", [(P.complete(3), 9, None), (P.path(5), 7, 300)],
                             ids=["K3@9", "P5@7-cut"])
    def test_the_batch_size_does_not_show(self, monkeypatch, h, n, max_nodes):
        # one frontier per batch, a few, and the default: 256 on K3@9, 72 on P5@7
        runs = []
        for cells in (1, 3000, search.STAR_BATCH_CELLS):
            monkeypatch.setattr(search, "STAR_BATCH_CELLS", cells)
            report = multiplicity(h, n, SearchBudget(max_nodes=max_nodes))
            runs.append(_search_fingerprint(report) + (sum(mono_counts(report.witness, h)),))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][2] == (max_nodes is None)

    @pytest.mark.parametrize("h,n,star", [
        (P.complete(3), 9, True),
        (P.path(5), 7, True),
        (P.cycle(6), 8, True),
        (P.path(6), 8, False),  # 7,560 star copies
        (P.path(7), 9, False),
        (P.cycle(7), 13, False),  # twelve star edges
        (P.path(2), 46, False),
        (P.path(2), 64, False),
    ], ids=["K3@9", "P5@7", "C6@8", "P6@8", "P7@9", "C7@13", "P2@46", "P2@64"])
    def test_which_boards_take_the_star_path(self, h, n, star):
        search._board.cache_clear()
        assert (search._board(h, n)[2].star is not None) == star
        search._board.cache_clear()

    def test_a_token_with_prefixes_into_the_star_resumes(self, monkeypatch):
        # a run that branched on the star stops with pending prefixes past
        # edge C(6,2) = 15; a job forced there branches on the star too
        h, n = P.path(5), 7
        monkeypatch.setattr(search, "STAR_MAX_COPIES", 0)
        search._board.cache_clear()
        first = multiplicity(h, n, SearchBudget(max_nodes=400))
        monkeypatch.undo()
        search._board.cache_clear()
        pending = first.resume_token.partition("pending=")[2].split(",")
        assert max(map(len, pending)) > comb(n - 1, 2)
        resumed = multiplicity(h, n, resume_token=first.resume_token)
        assert (resumed.value, resumed.exact) == (96, True)
        assert sum(mono_counts(resumed.witness, h)) == 96

    def test_a_forced_star_prefix_matches_full_scan(self):
        # an optimum's first 17 edges: two into the star, which starts at edge 15
        h, n = P.complete(3), 7
        masks = enumerate_copy_masks(h, n)
        prefix = _coloring_to_bits(multiplicity(h, n).witness)[:17]

        def fingerprint(engine):
            best, bits, stats, pending = engine(masks, n).run(prefix, goodman_k3(n) + 1, None, inf)
            return best, bits, stats.nodes, stats.leaves, stats.pruned_bound, pending

        assert fingerprint(_Engine) == fingerprint(ReferenceEngine)
        assert fingerprint(_Engine)[3] == 1


class TestDeepBoards:
    """One flat loop: a dive of C(n,2) edges needs no Python stack."""

    @pytest.mark.parametrize("n", [46, 64])
    def test_a_deep_dive_stops_and_resumes(self, n):
        # every edge is a copy of P2, so no bound prunes and the first dive
        # runs C(n,2) edges deep: 1,035 at n = 46, 2,016 at n = 64
        h = P.path(2)
        first = multiplicity(h, n, SearchBudget(max_nodes=2000))
        assert (first.value, first.exact, first.stats.nodes) == (comb(n, 2), False, 2000)
        # a resumed job walks its forced prefix again without counting it,
        # so a resume with no more nodes than the first leg still moves on
        for max_nodes in (2000, 10_000):
            resumed = multiplicity(h, n, SearchBudget(max_nodes=max_nodes),
                                   resume_token=first.resume_token)
            assert (resumed.value, resumed.exact, resumed.stats.nodes) == (
                comb(n, 2), False, max_nodes)
            assert resumed.resume_token != first.resume_token


class TestParallelDrain:
    def test_no_node_cap_drains_like_the_default_budget(self):
        # with no cap each round maps every queued job, as under the default budget
        counts = [multiplicity(P.complete(3), 9, SearchBudget(max_nodes=cap), threads=2).stats
                  for cap in (None, search.DEFAULT_NODE_BUDGET)]
        assert counts[0].nodes == counts[1].nodes

    def test_a_capped_round_splits_what_is_left_over_the_workers(self, monkeypatch):
        # K3@9 with 25,000 of its 56,229 nodes: the root job takes a
        # 20,000-node slice, and every later round splits what is left over
        # both workers
        rounds, drain = [], search._drain

        def recording(engine, jobs, best, bits, budget, map_jobs, *rest):
            def mapped(args):
                left = 25_000 - sum(spent for _, _, spent in rounds)
                results = map_jobs(args)
                cap = args[0][3]
                assert all(a[3] == cap for a in args) and len(args) * cap <= left
                rounds.append((len(args), cap, sum(r[2].nodes for r in results)))
                return results

            return drain(engine, jobs, best, bits, budget, mapped, *rest)

        monkeypatch.setattr(search, "_drain", recording)
        report = multiplicity(P.complete(3), 9, SearchBudget(max_nodes=25_000), threads=2)
        assert report.stats.nodes == 25_000
        assert [size for size, _, _ in rounds] == [1, 2, 2, 2, 2, 2, 2]
        assert [(size, cap) for size, cap, _ in rounds[:2]] == [(1, 20_000), (2, 2_500)]

    def test_node_counts_repeat(self):
        runs = [multiplicity(P.complete(3), 8, threads=2).stats for _ in range(2)]
        counts = [(s.nodes, s.leaves, s.pruned_bound, s.pruned_symmetry) for s in runs]
        assert counts[0] == counts[1]

    def test_budget_stop_leaves_a_token_that_resumes(self):
        h = P.path(6)
        # the serial search takes 29,395 nodes
        partial = multiplicity(h, 8, SearchBudget(max_nodes=25_000), threads=2)
        assert partial.stats.nodes <= 25_000
        assert not partial.exact and partial.resume_token is not None
        for threads in (1, 2):
            resumed = multiplicity(h, 8, SearchBudget(max_nodes=None), threads=threads,
                                   resume_token=partial.resume_token)
            assert (resumed.value, resumed.exact) == (300, True)
