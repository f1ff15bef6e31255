"""Regularity checking, transversal path oracles, and the bound evaluators."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ramseykit.errors import BudgetExceededError, PreconditionError
from ramseykit.graphs import PatternGraph, SimpleGraph, count_copies
from ramseykit.regular import (
    EXACT_REGULARITY_CAP,
    GridSpec,
    PairSystem,
    RegimeParams,
    check_regularity,
    complete_minus_matching_ring,
    complete_ring,
    count_transversal_paths,
    count_transversal_paths_between,
    degree_exception_counts,
    density,
    quasirandom_ring,
    regularity_defect,
    ring_cycle_bound,
    slice_params,
    transversal_path_bound_fixed_start,
    transversal_path_bound_fixed_ends,
    _deviation_table,
    verify_counting_lemma,
)

from .helpers import (
    definitional_regularity,
    random_simple_graph,
    reference_deviation_table,
    reference_regularity_defect,
)


def _edges_between(g: SimpleGraph, us, vs) -> int:
    return sum(g.has_edge(u, v) for u in us for v in vs)


def assert_witness(g: SimpleGraph, xs, ys, eps: float, res) -> None:
    """The witness (U, V) of an irregular verdict, recounted from scratch."""
    xs, ys = list(xs), list(ys)
    u, v = res.witness
    assert set(u) <= set(xs) and set(v) <= set(ys)
    assert len(u) >= max(1, math.ceil(eps * len(xs) - 1e-12))
    assert len(v) >= max(1, math.ceil(eps * len(ys) - 1e-12))
    d = Fraction(_edges_between(g, xs, ys), len(xs) * len(ys))
    dev = abs(float(Fraction(_edges_between(g, u, v), len(u) * len(v)) - d))
    assert res.deviation == dev
    assert dev > eps


class TestDensity:
    def test_complete_bipartite(self):
        g = SimpleGraph.complete_bipartite(4, 4)
        assert density(g, range(4), range(4, 8)) == 1.0

    def test_empty_bipartite(self):
        g = SimpleGraph.from_edges(8, [])
        assert density(g, range(4), range(4, 8)) == 0.0

    def test_same_set_form(self):
        assert density(SimpleGraph.complete(4), range(4), range(4)) == 0.75

    def test_overlapping_sets_rejected(self):
        with pytest.raises(PreconditionError):
            density(SimpleGraph.complete(4), [0, 1], [1, 2])

    def test_empty_set_rejected(self):
        with pytest.raises(PreconditionError):
            density(SimpleGraph.complete(4), [], [0])


class TestRegularityChecker:
    def test_complete_bipartite_regular_at_any_eps(self):
        g = SimpleGraph.complete_bipartite(5, 5)
        for eps in (0.1, 0.3, 0.9):
            assert check_regularity(g, range(5), range(5, 10), eps).verdict == "regular"

    def test_empty_pair_regular(self):
        g = SimpleGraph.from_edges(8, [])
        assert check_regularity(g, range(4), range(4, 8), 0.5).verdict == "regular"

    def test_half_loaded_pair_irregular_with_witness(self):
        g = SimpleGraph.from_edges(8, [(i, j) for i in range(2) for j in range(4, 8)])
        res = check_regularity(g, range(4), range(4, 8), 0.3)
        assert res.verdict == "irregular"
        u, v = res.witness
        assert res.deviation > 0.3
        assert set(u) <= set(range(4)) and set(v) <= set(range(4, 8))

    def test_matches_definitional_evaluation_exhaustively_3x3(self):
        for code in range(1 << 9):
            g = SimpleGraph.from_edges(
                6, [(i, 3 + j) for i in range(3) for j in range(3) if code >> (3 * i + j) & 1]
            )
            for eps in (0.2, 0.5):
                res = check_regularity(g, range(3), range(3, 6), eps)
                direct = definitional_regularity(g, range(3), range(3, 6), eps)
                assert (res.verdict == "regular") == (direct is None), (code, eps)
                if res.verdict == "irregular":
                    assert_witness(g, range(3), range(3, 6), eps, res)

    @pytest.mark.parametrize("nx,ny", [(3, 4), (4, 3)])
    def test_matches_definitional_evaluation_exhaustively(self, nx, ny):
        xs, ys = range(nx), range(nx, nx + ny)
        for code in range(1 << (nx * ny)):
            g = SimpleGraph.from_edges(
                nx + ny,
                [(i, nx + j) for i in range(nx) for j in range(ny) if code >> (ny * i + j) & 1],
            )
            # eps at deviations of g itself: one vertex pair's, and each
            # witness's, where the verdict turns on the strict comparison
            d = Fraction(_edges_between(g, xs, ys), nx * ny)
            epsilons = [0.2, 0.5, abs(float(int(g.has_edge(0, nx)) - d))]
            for eps in epsilons:
                if not 0 < eps < 1:
                    continue
                res = check_regularity(g, xs, ys, eps)
                direct = definitional_regularity(g, xs, ys, eps)
                assert (res.verdict == "regular") == (direct is None), (code, eps)
                if res.verdict == "irregular":
                    assert_witness(g, xs, ys, eps, res)
                    if len(epsilons) < 6:
                        epsilons.append(res.deviation)

    def test_verdict_is_the_strict_comparison_without_slack(self):
        # K_{2,2} minus a perfect matching: every single-vertex pair deviates
        # by exactly 1/2 from d = 1/2, and the floors stay at 1 up to eps = 1/2
        sys = complete_minus_matching_ring([2, 2])
        xs, ys = sys.classes
        assert check_regularity(sys.graph, xs, ys, 0.5).verdict == "regular"
        res = check_regularity(sys.graph, xs, ys, math.nextafter(0.5, 0.0))
        assert res.verdict == "irregular" and res.deviation == 0.5
        assert_witness(sys.graph, xs, ys, math.nextafter(0.5, 0.0), res)

    def test_witness_recounts_on_random_pairs(self):
        rng = random.Random(17)
        found = 0
        for _ in range(300):
            nx, ny = rng.randint(1, 7), rng.randint(1, 7)
            g = random_simple_graph(nx + ny, rng.random(), rng)
            xs, ys = range(nx), range(nx, nx + ny)
            for eps in (0.05, 0.15, 0.3, rng.random()):
                for kw in ({}, {"mode": "randomized", "samples": 20, "seed": 3}):
                    res = check_regularity(g, xs, ys, eps, **kw)
                    if res.verdict == "irregular":
                        assert_witness(g, xs, ys, eps, res)
                        found += 1
        assert found > 100

    def test_randomized_mode_finds_gross_violations(self):
        g = SimpleGraph.from_edges(8, [(i, j) for i in range(2) for j in range(4, 8)])
        res = check_regularity(g, range(4), range(4, 8), 0.3, mode="randomized",
                               samples=400, seed=5)
        assert res.verdict == "irregular"

    def test_randomized_never_says_regular(self):
        g = SimpleGraph.complete_bipartite(4, 4)
        res = check_regularity(g, range(4), range(4, 8), 0.3, mode="randomized",
                               samples=50, seed=5)
        assert res.verdict == "unknown"

    def test_randomized_requires_seed(self):
        g = SimpleGraph.complete_bipartite(4, 4)
        with pytest.raises(PreconditionError):
            check_regularity(g, range(4), range(4, 8), 0.3, mode="randomized")


class TestDefect:
    def test_complete_is_zero(self):
        g = SimpleGraph.complete_bipartite(5, 5)
        assert regularity_defect(g, range(5), range(5, 10)) == 0.0

    def test_minus_matching_quarter(self):
        sys = complete_minus_matching_ring([8, 8])
        assert abs(regularity_defect(sys.graph, sys.classes[0], sys.classes[1]) - 0.25) < 1e-9

    def test_defect_certifies(self):
        rng = random.Random(11)
        for _ in range(5):
            g = SimpleGraph.from_edges(
                10, [(i, j) for i in range(5) for j in range(5, 10) if rng.random() < 0.5]
            )
            eps_hat = regularity_defect(g, range(5), range(5, 10))
            res = check_regularity(g, range(5), range(5, 10), min(0.999, eps_hat + 1e-6))
            assert res.verdict == "regular"

    def test_matches_fraction_reference_bit_for_bit(self):
        rng = random.Random(13)
        shapes = [(1, 1), (1, 6), (6, 1), (2, 9), (9, 9)]
        shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(120)]
        for nx, ny in shapes:
            for p in (0.0, 1.0, rng.random()):
                g = random_simple_graph(nx + ny, p, rng)
                xs, ys = range(nx), range(nx, nx + ny)
                got = regularity_defect(g, xs, ys)
                assert repr(got) == repr(reference_regularity_defect(g, xs, ys)), (g.adj, nx, ny)


class TestDeviationTable:
    @staticmethod
    def _random_pair(rng, nx, ny):
        # the pair sits among other vertices, in shuffled order, so that
        # subset bit b and vertex vx[b] differ
        n = nx + ny + rng.randint(0, 3)
        g = random_simple_graph(n, rng.choice([0.0, 1.0, rng.random()]), rng)
        labels = rng.sample(range(n), nx + ny)
        vx, vy = sorted(labels[:nx]), sorted(labels[nx:])
        return g, vx, vy, sum(1 << y for y in vy)

    def test_matches_the_per_subset_scan(self):
        rng = random.Random(17)
        shapes = [(nx, ny) for nx in range(1, 11) for ny in (1, 10)]
        shapes += [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(580)]
        for nx, ny in shapes:
            g, vx, vy, my = self._random_pair(rng, nx, ny)
            assert _deviation_table(g, vx, vy, my) == reference_deviation_table(g, vx, vy, my), (
                g.adj, vx, vy)

    def test_matches_the_per_subset_scan_at_the_cap(self):
        rng = random.Random(19)
        cap = EXACT_REGULARITY_CAP
        for nx, ny in [(cap, cap), (cap, 3), (2, cap)]:
            g, vx, vy, my = self._random_pair(rng, nx, ny)
            assert _deviation_table(g, vx, vy, my) == reference_deviation_table(g, vx, vy, my), (
                g.adj, vx, vy)


class TestDegreeExceptions:
    def test_complete_bipartite_no_exceptions(self):
        g = SimpleGraph.complete_bipartite(4, 4)
        assert degree_exception_counts(g, range(4), range(4, 8), 1.0, 0.1) == (0, 0)

    def test_exception_bound_on_certified_pairs(self):
        rng = random.Random(13)
        for _ in range(10):
            g = SimpleGraph.from_edges(
                12, [(i, j) for i in range(6) for j in range(6, 12) if rng.random() < 0.6]
            )
            xs, ys = list(range(6)), list(range(6, 12))
            eps = max(regularity_defect(g, xs, ys) + 1e-9, 0.05)
            if eps >= 1:
                continue
            d = density(g, xs, ys)
            for _ in range(8):
                m = rng.randint(max(1, math.ceil(eps * 6)), 6)
                y_sub = rng.sample(ys, m)
                hi, lo = degree_exception_counts(g, xs, y_sub, d, eps)
                assert hi < eps * len(xs)
                assert lo < eps * len(xs)


class TestSliceParams:
    def test_values(self):
        assert slice_params(0.1, 0.5) == 0.2
        assert slice_params(0.1, 0.25) == pytest.approx(0.4)
        assert slice_params(0.01, 1.0) == 0.02

    def test_zero_alpha_rejected(self):
        with pytest.raises(PreconditionError):
            slice_params(0.1, 0.0)


class TestPairSystem:
    def test_non_consecutive_edges_rejected(self):
        with pytest.raises(PreconditionError, match="non-consecutive"):
            PairSystem.build([2, 2, 2, 2], [(0, 4)])  # class 0 to class 2

    def test_within_class_edges_rejected(self):
        with pytest.raises(PreconditionError):
            PairSystem.build([2, 2], [(0, 1)])

    def test_t2_ring_is_one_bipartite_graph(self):
        sys = complete_ring([3, 3])
        assert sys.consecutive_pairs() == [(0, 1)]


class TestTransversalOracles:
    def test_complete_bipartite_counts(self):
        sys = complete_ring([3, 3])
        assert count_transversal_paths(sys, 0, 3) == 12

    def test_isolated_start_counts_zero(self):
        sys = PairSystem.build([2, 2], [(1, 2), (1, 3)])
        assert count_transversal_paths(sys, 0, 2) == 0

    def test_three_ring(self):
        sys = complete_ring([2, 2, 2])
        assert count_transversal_paths(sys, 0, 2) == 4

    def test_between_open(self):
        sys = complete_ring([3, 3])
        assert count_transversal_paths_between(sys, 0, 1, 2) == 3

    def test_between_requires_divisibility(self):
        sys = complete_ring([3, 3])
        with pytest.raises(PreconditionError):
            count_transversal_paths_between(sys, 0, 1, 3)

    def test_closed_sequences_from_one_start(self):
        # derived by hand and frozen: w1 in V1 (3) x w2 in V0-w0 (2) x w3 in V1-w1 (2)
        sys = complete_ring([3, 3])
        assert count_transversal_paths_between(sys, 0, 0, 4) == 12

    def test_closed_sequence_cycle_ratio(self):
        # t = 2: each aligned p-cycle is seen p times (p/2 starts x 2 directions)
        sys = complete_ring([3, 3])
        total = sum(count_transversal_paths_between(sys, w, w, 4) for w in sys.classes[0])
        assert total == 4 * count_copies(sys.graph, PatternGraph.cycle(4))

    def test_closed_sequence_cycle_ratio_t3(self):
        # t >= 3: only the forward direction is class-aligned: p/t per cycle
        rng = random.Random(5)
        sys = quasirandom_ring([3, 3, 3], 0.8, rng)
        p = 6
        total = sum(count_transversal_paths_between(sys, w, w, p) for w in sys.classes[0])
        aligned = set()
        for w in sys.classes[0]:
            aligned |= _aligned_cycles(sys, w, p)
        assert total == (p // sys.t) * len(aligned)

    def test_budget_error(self):
        # 64 KiB holds the first layers of the walks from vertex 0, not all
        sys = complete_ring([8, 8])
        assert count_transversal_paths(sys, 0, 4, cap=1 << 16) == 8 * 7 * 7 * 6
        with pytest.raises(BudgetExceededError):
            count_transversal_paths(sys, 0, 9, cap=1 << 16)


def _aligned_cycles(sys, w0, p):
    """Edge sets of class-aligned p-cycles through w0 (test-local oracle)."""
    out = set()
    adj = sys.graph.adj
    t = sys.t

    def rec(v, used, depth, path):
        if depth == p - 1:
            if adj[v] >> w0 & 1:
                ring = path + [w0]
                out.add(frozenset(frozenset(e) for e in zip(ring, ring[1:])))
            return
        for w in sys.classes[(depth + 1) % t]:
            if not used >> w & 1 and adj[v] >> w & 1:
                rec(w, used | (1 << w), depth + 1, path + [w])

    rec(w0, 1 << w0, 0, [w0])
    return out


class TestBounds:
    def test_fixed_start_matches_complete_bipartite(self):
        p = RegimeParams(eps=0.0, d=1.0, t=2)
        ev = transversal_path_bound_fixed_start(p, 3, 3)
        assert ev.met
        assert 11.9 < ev.value <= 12.0
        sys = complete_ring([3, 3])
        assert count_transversal_paths(sys, 0, 3) >= ev.value

    def test_fixed_start_flags_short_length(self):
        p = RegimeParams(eps=0.0, d=1.0, t=2)
        ev = transversal_path_bound_fixed_start(p, 3, 1)
        assert not ev.met

    def test_fixed_ends_degenerates_at_zero_eps(self):
        p = RegimeParams(eps=0.0, d=1.0, t=2)
        assert transversal_path_bound_fixed_ends(p, 3, 4).value == 0.0

    def test_fixed_ends_explicit_product(self):
        eps, d, t, n, ell = 1e-4, 0.9, 2, 10**8, 4
        p = RegimeParams(eps=eps, d=d, t=t)
        ev = transversal_path_bound_fixed_ends(p, n, ell)
        se = math.sqrt(eps)
        manual = (d - 5 * se) ** 3 * (1 - 2 * se) ** 2 * (eps * n) * (n * (n - 1))
        assert ev.value == pytest.approx(manual, rel=1e-9)
        assert ev.value <= manual  # downward rounding never overshoots

    def test_fixed_ends_divisibility_flag(self):
        p = RegimeParams(eps=1e-6, d=0.5, t=2)
        ev = transversal_path_bound_fixed_ends(p, 100, 5)
        assert dict(ev.hypotheses)["t divides ell"] is False

    def test_cycle_bound_parity_flag(self):
        p = RegimeParams(eps=1e-6, d=0.5, t=3)
        assert dict(ring_cycle_bound(p, 100, 12).hypotheses)["p odd"] is False

    def test_cycle_bound_finite_value(self):
        p = RegimeParams(eps=1e-6, d=0.5, t=3)
        ev = ring_cycle_bound(p, 10**13, 13)
        assert ev.met and ev.value > 0

    def test_monotone_in_parameters(self):
        n, ell, t = 50, 5, 2
        eps_grid = [0.0, 1e-6, 1e-4, 1e-2]
        d_grid = [0.2, 0.5, 0.8, 1.0]
        for d in d_grid:
            vals = [
                transversal_path_bound_fixed_start(
                    RegimeParams(eps=e, d=d, t=t), n, ell
                ).value
                for e in eps_grid
            ]
            assert vals == sorted(vals, reverse=True)
        for e in eps_grid:
            vals = [
                transversal_path_bound_fixed_start(
                    RegimeParams(eps=e, d=d, t=t), n, ell
                ).value
                for d in d_grid
            ]
            assert vals == sorted(vals)
        for n_val in (10, 20, 40):
            prev = transversal_path_bound_fixed_start(
                RegimeParams(eps=1e-6, d=0.5, t=t), n_val, ell
            ).value
            nxt = transversal_path_bound_fixed_start(
                RegimeParams(eps=1e-6, d=0.5, t=t), n_val * 2, ell
            ).value
            assert nxt >= prev

    def test_paper_mode_locks_derived_parameters(self):
        p = RegimeParams(eps=1e-6, d=0.5, t=2)
        assert p.alpha == pytest.approx(20 * math.sqrt(1e-6))
        assert p.lam == pytest.approx(300 * math.sqrt(p.alpha))


class TestHarness:
    def test_small_grids_have_no_failures(self):
        for lemma in ("countpath2-p1", "countpath2-p2", "countcycle1"):
            base = GridSpec.default(lemma)
            spec = GridSpec(lemma, base.t_values, base.size_lo, base.size_hi,
                            instances_per_cell=5, count_bytes=base.count_bytes)
            rep = verify_counting_lemma(lemma, seed=3, spec=spec)
            tally = rep.tally()
            assert tally.get("FAIL", 0) == 0, tally
            assert tally.get("undecided-budget", 0) == 0, tally

    def test_complete_family_passes_nonvacuously(self):
        base = GridSpec.default("countpath2-p1")
        spec = GridSpec("countpath2-p1", (2,), 4, 6, families=("complete",),
                        instances_per_cell=10)
        rep = verify_counting_lemma("countpath2-p1", seed=1, spec=spec)
        assert rep.tally() == {"pass": 10}

    def test_countcycle1_fingerprint(self):
        # seed 2026, 2 instances per cell, as `verify-lemma --lemma countcycle1
        # --seed 2026 --instances 2`; the exact counts agree with the
        # depth-first counter
        base = GridSpec.default("countcycle1")
        spec = GridSpec("countcycle1", base.t_values, base.size_lo, base.size_hi,
                        instances_per_cell=2, count_bytes=base.count_bytes)
        rep = verify_counting_lemma("countcycle1", seed=2026, spec=spec)
        got = [(r.family, r.sizes, r.length, r.exact, r.count_complete, r.verdict, r.note)
               for r in rep.rows]
        assert got == [
            ("complete", (6, 5, 5), 13, None, False, "pass",
             "count budget-truncated; bound is zero"),
            ("complete", (6, 4, 6), 13, None, False, "vacuous", "count budget-truncated"),
            ("complete-minus-matching", (4, 6, 5), 15, None, False, "vacuous",
             "count budget-truncated"),
            ("complete-minus-matching", (4, 6, 4), 15, 0, True, "vacuous", ""),
            ("quasirandom", (4, 5, 4), 15, 0, True, "vacuous", ""),
            ("quasirandom", (5, 6, 6), 13, None, False, "vacuous", "count budget-truncated"),
        ]

    def test_countcycle1_completed_counts(self):
        # seed 3, 5 instances per cell: the rows whose count finished
        # inside the grid's 2 MiB cap, each equal to the depth-first count
        base = GridSpec.default("countcycle1")
        spec = GridSpec("countcycle1", base.t_values, base.size_lo, base.size_hi,
                        instances_per_cell=5, count_bytes=base.count_bytes)
        rep = verify_counting_lemma("countcycle1", seed=3, spec=spec)
        got = [(sum(r.sizes), r.length, r.exact) for r in rep.rows if r.count_complete]
        assert got == [(14, 13, 27371520), (14, 15, 0), (14, 13, 2180208), (15, 15, 256),
                       (12, 13, 0), (14, 13, 323), (14, 15, 0), (13, 13, 38)]
        assert sum(not r.count_complete for r in rep.rows) == 7

    @pytest.mark.parametrize("lemma,tally", [
        ("countpath2-p1", {"undecided-budget": 4, "vacuous": 8}),
        ("countpath2-p2", {"pass": 4, "vacuous": 8}),
    ])
    def test_path_rows_truncate_like_cycle_rows(self, lemma, tally):
        # a path count stopped by the cap used to end the whole grid with
        # BudgetExceededError; now its row is truncated and keeps a verdict
        spec = replace(GridSpec.default(lemma), instances_per_cell=2, count_bytes=50)
        rep = verify_counting_lemma(lemma, 7, spec)
        assert rep.tally() == tally
        assert all(r.exact is None and not r.count_complete for r in rep.rows)
        assert {(r.verdict, r.note) for r in rep.rows} <= {
            ("pass", "count budget-truncated; bound is zero"),
            ("vacuous", "count budget-truncated"),
            ("undecided-budget", ""),
        }

    def test_deterministic_given_seed(self):
        spec = GridSpec("countpath2-p1", (2,), 4, 6, instances_per_cell=3)
        a = verify_counting_lemma("countpath2-p1", seed=9, spec=spec)
        b = verify_counting_lemma("countpath2-p1", seed=9, spec=spec)
        assert [r.as_dict() for r in a.rows] == [r.as_dict() for r in b.rows]
