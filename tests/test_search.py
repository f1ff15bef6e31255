"""Exhaustive-search soundness: pruned search vs unpruned enumeration,
known Ramsey numbers, budget and resume semantics."""

from math import comb

import pytest

from ramseykit import search
from ramseykit.errors import PreconditionError
from ramseykit.graphs import PatternGraph, SimpleGraph, mono_counts
from ramseykit.search import (
    SearchBudget,
    _Engine,
    _seed_colorings,
    _seed_incumbent,
    enumerate_copy_masks,
    find_zero_coloring,
    multiplicity,
    ramsey_number,
    threshold_multiplicity,
)

from .helpers import (
    mask_rows_as_ints,
    multiplicity_bruteforce,
    reference_canonical_violated,
    reference_copy_masks,
    reference_transposition_sigmas,
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
        h = P.path(4)
        assert multiplicity(h, 6, use_symmetry=False).value == multiplicity(h, 6).value

    def test_copy_mask_counts(self):
        # number of distinct copies of C5 in K9 = C(9,5) * 12
        assert len(enumerate_copy_masks(P.cycle(5), 9)) == 126 * 12
        assert len(enumerate_copy_masks(P.path(6), 8)) == 28 * 360

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
        assert masks.shape[1] == -(-comb(n, 2) // 64)
        assert mask_rows_as_ints(masks) == reference_copy_masks(h, n)


def goodman_k3(n: int) -> int:
    """M(K3, n) = C(n,3) - floor((n/2) floor((n-1)^2/4)) (Goodman, 1959)."""
    return comb(n, 3) - (n * ((n - 1) ** 2 // 4)) // 2


class TestKernelFingerprints:
    """Values and search counters pinned from runs of the all-Python-int kernel."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_goodman_triangles(self, n):
        report = multiplicity(P.complete(3), n)
        assert report.exact and report.value == goodman_k3(n)

    def test_p6_on_8(self):
        report = multiplicity(P.path(6), 8)
        stats = report.stats
        assert (report.value, report.exact) == (300, True) and type(report.value) is int
        assert (stats.nodes, stats.pruned_bound, stats.pruned_symmetry) == (59215, 19961, 9644)

    def test_k3_on_9(self):
        report = multiplicity(P.complete(3), 9)
        stats = report.stats
        assert (report.value, report.exact) == (goodman_k3(9), True)
        assert (stats.nodes, stats.pruned_bound, stats.pruned_symmetry) == (538211, 183523, 85580)

    def test_c7_on_13_budget(self):
        report = multiplicity(P.cycle(7), 13, SearchBudget(max_nodes=5000))
        stats = report.stats
        assert (report.value, report.exact) == (360, False)
        assert (stats.pruned_bound, stats.pruned_symmetry) == (1406, 1081)
        assert report.resume_token == "000000000000000000011001111111110011111101"
        assert sum(mono_counts(report.witness, P.cycle(7))) == 360


class _ReferenceEngine(_Engine):
    """The search engine with the full-scan canonicity check in place of the incremental one."""

    def __init__(self, masks, n, *args, **kwargs):
        super().__init__(masks, n, *args, **kwargs)
        self.reference_sigmas = reference_transposition_sigmas(n)

    def _tied_after(self, depth, tied):
        violated = reference_canonical_violated(self.x, self.reference_sigmas, depth + 1)
        return -1 if violated else tied


def _search_fingerprint(report):
    stats = report.stats
    return (report.value, report.witness, report.exact, report.resume_token,
            stats.nodes, stats.leaves, stats.pruned_bound, stats.pruned_symmetry)


class TestCanonicityCheck:
    """The incremental check prunes exactly the nodes the full rescan prunes."""

    @pytest.mark.parametrize("h,n,max_nodes", [
        (P.complete(3), 8, None),
        (P.cycle(5), 9, None),
        (P.path(5), 7, None),
        (P.path(6), 8, None),
        (P.cycle(7), 13, 5000),
    ], ids=lambda x: getattr(x, "kind", x))
    def test_matches_full_scan(self, monkeypatch, h, n, max_nodes):
        budget = SearchBudget(max_nodes=max_nodes)
        incremental = multiplicity(h, n, budget)
        monkeypatch.setattr(search, "_Engine", _ReferenceEngine)
        full_scan = multiplicity(h, n, budget)
        assert _search_fingerprint(incremental) == _search_fingerprint(full_scan)

    def test_forced_prefix_matches_full_scan(self):
        h, n = P.path(6), 8
        masks = enumerate_copy_masks(h, n)
        runs = []
        for engine in (_Engine, _ReferenceEngine):
            eng = engine(masks, n, SearchBudget(max_nodes=None), 400, None, prefix=[0, 1, 1, 0])
            eng.run()
            stats = eng.stats.as_dict()
            del stats["elapsed_seconds"]
            runs.append((eng.best, eng.best_bits, eng.stopped_at, stats))
        assert runs[0] == runs[1]
        assert runs[0][3]["pruned_symmetry"] > 0


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
        seeds = _seed_colorings(n)
        counts = [sum(mono_counts(c, h)) for c in seeds]
        first = counts.index(min(counts))
        assert _seed_incumbent(enumerate_copy_masks(h, n), n) == (counts[first], seeds[first])


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
            h, 7, SearchBudget(max_nodes=None), resume_token=partial.resume_token,
            incumbent=partial,
        )
        assert resumed.exact
        assert resumed.value == full.value

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
        with pytest.raises(PreconditionError, match=problem):
            multiplicity(P.path(4), 5, resume_token=token)

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
