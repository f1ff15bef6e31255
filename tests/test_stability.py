"""Reduced-graph construction, the cycles-or-bipartition checker, and the
case classifier."""

import random

import pytest

from ramseykit.errors import PreconditionError
from ramseykit.extremal import chi
from ramseykit.graphs import SimpleGraph, TwoColoring, pair_index
from ramseykit.regular import EXACT_REGULARITY_CAP, RegimeParams
from ramseykit.stability import build_reduced, disjoint_parts, main2_classify, ns_check


def ring_blowup(t_parts: int, size: int) -> tuple[TwoColoring, list[list[int]]]:
    """Red complete bipartite graphs around a ring of parts, blue elsewhere."""
    n = t_parts * size
    parts = [list(range(i * size, (i + 1) * size)) for i in range(t_parts)]
    mask = 0
    for i in range(t_parts):
        for a in parts[i]:
            for b in parts[(i + 1) % t_parts]:
                mask |= 1 << pair_index(min(a, b), max(a, b), n)
    return TwoColoring(n, mask), parts


class TestBuildReduced:
    def test_chi_cross_pair_is_red_only(self):
        p = RegimeParams(eps=0.005, d=0.0, t=2)
        rg = build_reduced(chi(6, 6), [range(6), range(6, 12)], p)
        assert rg.red_edges == frozenset({(0, 1)})
        assert rg.blue_edges == frozenset()
        assert rg.irregular_pairs == frozenset()

    def test_explicit_density_floor_override(self):
        p = RegimeParams(eps=0.1, d=0.4, t=2)
        rg = build_reduced(chi(6, 6), [range(6), range(6, 12)], p)
        assert rg.d == 0.4
        assert rg.red_edges == frozenset({(0, 1)})

    def test_random_coloring_pairs_doubly_colored(self):
        # seed-pinned: uniform coloring has near-half densities everywhere,
        # so at a tolerant eps every regular pair is colored both ways
        rng = random.Random(20)
        from math import comb

        c = TwoColoring(20, rng.randrange(1 << comb(20, 2)))
        parts = [list(range(i, 20, 4)) for i in range(4)]
        p = RegimeParams(eps=0.45, d=0.4, t=4)
        rg = build_reduced(c, parts, p)
        both = rg.red_edges & rg.blue_edges
        assert len(both) >= 4

    def test_parts_must_cover_every_vertex(self):
        assert disjoint_parts([[1, 0], [2, 3]], 4) == ((0, 1), (2, 3))
        with pytest.raises(PreconditionError, match=r"leave out vertices \[2\]"):
            disjoint_parts([[0, 1], [3]], 4)

    def test_singleton_part_with_exact_mode_rejected(self):
        p = RegimeParams(eps=0.1, d=0.4, t=2)
        with pytest.raises(PreconditionError):
            build_reduced(chi(2, 1), [[0, 1], [2]], p)

    def test_irregular_and_colored_disjoint(self):
        rng = random.Random(4)
        from math import comb

        c = TwoColoring(12, rng.randrange(1 << comb(12, 2)))
        parts = [list(range(i, 12, 3)) for i in range(3)]
        p = RegimeParams(eps=0.05, d=0.3, t=3)
        rg = build_reduced(c, parts, p)
        assert not rg.irregular_pairs & (rg.red_edges | rg.blue_edges)
        # with d <= 1/2 every regular pair carries at least one color
        all_pairs = {(i, j) for i in range(3) for j in range(i + 1, 3)}
        for pair in all_pairs - rg.irregular_pairs:
            assert pair in rg.red_edges | rg.blue_edges


class TestNsCheck:
    def test_complete_bipartite_yields_partition(self):
        out = ns_check(SimpleGraph.complete_bipartite(5, 5), alpha=0.02, beta=0.01)
        assert out.variant == "partition"
        assert out.structure == "bipartite"
        assert out.u0 == ()
        assert {frozenset(out.u1), frozenset(out.u2)} == {
            frozenset(range(5)), frozenset(range(5, 10))
        }

    def test_complete_graph_yields_cycles(self):
        out = ns_check(SimpleGraph.complete(10), alpha=0.02, beta=0.01)
        assert out.variant == "cycles"
        assert sorted(out.spectrum) == [3, 4, 5, 6]

    def test_disjoint_cliques_yield_complement_structure(self):
        g = SimpleGraph.from_edges(
            10,
            [(i, j) for i in range(5) for j in range(i + 1, 5)]
            + [(i, j) for i in range(5, 10) for j in range(i + 1, 10)],
        )
        out = ns_check(g, alpha=0.02, beta=0.06)
        assert out.variant == "partition"
        assert out.structure == "bipartite-complement"

    def test_sparse_graph_rejected(self):
        g = SimpleGraph.from_edges(10, [(0, 1)])
        with pytest.raises(PreconditionError, match="edge count"):
            ns_check(g, alpha=0.02, beta=0.001)

    def test_desk_scale_parameters_flagged(self):
        out = ns_check(SimpleGraph.complete(8), alpha=0.05, beta=0.001)
        assert any("alpha" in f for f in out.flags)

    def test_dense_spoiler_graph_is_pancyclic(self):
        # one vertex joined to both sides of K_{4,4} creates every cycle
        # length, so the cycle branch settles it outright
        edges = [(i, j) for i in range(4) for j in range(4, 8)]
        edges += [(8, 0), (8, 4)]
        g = SimpleGraph.from_edges(9, edges)
        out = ns_check(g, alpha=0.08, beta=0.05)
        assert out.variant == "cycles"

    def test_bridged_cliques_settle_via_greedy_u0(self):
        # two cliques and one bridge: C6 is missing, and the checker keeps
        # growing U0 until the leftover splits; all stated inequalities are
        # re-verified on emission (the desk-scale window is vacuously wide)
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
        edges += [(0, 5)]
        g = SimpleGraph.from_edges(10, edges)
        out = ns_check(g, alpha=0.02, beta=0.06)
        assert out.variant == "partition"
        assert out.diagnostics["missing_cycle_lengths"] == [6]

    def test_inconclusive_when_u0_budget_is_zero(self):
        # same graph, but alpha so small that no vertex may be set aside:
        # neither branch certifies and the checker says so
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
        edges += [(0, 5)]
        g = SimpleGraph.from_edges(10, edges)
        out = ns_check(g, alpha=1e-7, beta=0.06)
        assert out.variant == "inconclusive"
        assert out.diagnostics["u0_sizes_tried"] == 1

    def test_uneven_bipartite_components_pin_their_orientations(self):
        # star centred at 4 (least vertex 0 a leaf), K_{2,3}, a path centred
        # at 11, an edge and the isolated vertex 15: the smallest split takes
        # the smaller class of each component, which is the least vertex's
        # class for some components and the other class for the rest
        edges = [(0, 4), (1, 4), (2, 4), (3, 4)]
        edges += [(a, b) for a in (5, 6) for b in (7, 8, 9)]
        edges += [(10, 11), (11, 12), (13, 14)]
        out = ns_check(SimpleGraph.from_edges(16, edges), alpha=0.02, beta=0.23)
        assert out.variant == "partition"
        assert out.structure == "bipartite"
        assert out.u0 == ()
        assert out.u1 == (4, 5, 6, 11, 13)
        assert out.u2 == (0, 1, 2, 3, 7, 8, 9, 10, 12, 14, 15)
        assert out.diagnostics["missing_cycle_lengths"] == [3, 5, 6, 7, 8, 9]

    def test_hanging_triangles_need_a_nonempty_u0(self):
        # K_{3,3} with a triangle hanging at 0 and one at 3: U0 grows by
        # lowest degree (6, then 7, then 8) until G - U0 is bipartite
        edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
        edges += [(0, 6), (0, 7), (6, 7), (3, 8), (3, 9), (8, 9)]
        out = ns_check(SimpleGraph.from_edges(10, edges), alpha=0.02, beta=0.15)
        assert out.variant == "partition"
        assert out.structure == "bipartite"
        assert out.u0 == (6, 7, 8)
        assert out.u1 == (3, 4, 5)
        assert out.u2 == (0, 1, 2, 9)
        assert out.diagnostics["missing_cycle_lengths"] == [5]


class TestClassifier:
    def test_chi_is_case2_with_exact_lambda(self):
        p = RegimeParams(eps=1e-4, d=0.0, t=2)
        res = main2_classify(chi(5, 4), [range(5), range(5, 9)], p)
        assert res.case == "case2"
        assert abs(res.assessment.lambda_star - 1 / 18) < 1e-12

    def test_ring_blowup_is_case1(self):
        c, parts = ring_blowup(5, 4)
        p = RegimeParams(eps=0.005, d=0.0, t=5, alpha=0.52)
        res = main2_classify(c, parts, p)
        assert res.case == "case1"
        assert res.t == 5
        assert res.color == "red"
        assert sorted(res.ring_parts) == [0, 1, 2, 3, 4]

    def test_case1_witness_pairs_verified(self):
        from ramseykit.regular import check_regularity, density

        c, parts = ring_blowup(5, 4)
        p = RegimeParams(eps=0.005, d=0.0, t=5, alpha=0.52)
        res = main2_classify(c, parts, p)
        gr = c.red_graph()
        floor = 11 * (p.eps ** 0.5)
        ring = list(res.ring_parts)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            pa, pb = parts[a], parts[b]
            assert density(gr, pa, pb) >= floor
            assert check_regularity(gr, pa, pb, p.eps).verdict == "regular"

    def test_unstructured_coloring_is_inconclusive_at_paper_parameters(self):
        # at the asymptotic eps the extremality cap 300*sqrt(alpha) is tiny,
        # and a random coloring certifies neither structure
        rng = random.Random(8)
        from math import comb

        c = TwoColoring(12, rng.randrange(1 << comb(12, 2)))
        parts = [list(range(i, 12, 4)) for i in range(4)]
        p = RegimeParams(eps=1e-30, d=0.45, t=4)
        res = main2_classify(c, parts, p)
        assert res.case == "inconclusive"
        assert res.diagnostics["lambda_star"] > res.diagnostics["lambda_cap"]

    def test_zero_eps_rejected(self):
        # the window and the chain alpha = 20 sqrt(eps) need eps > 0
        with pytest.raises(PreconditionError, match="eps > 0"):
            main2_classify(chi(5, 4), [range(5), range(5, 9)], RegimeParams(eps=0.0, d=0.0, t=2))

    def test_deterministic(self):
        p = RegimeParams(eps=1e-4, d=0.0, t=2)
        a = main2_classify(chi(5, 4), [range(5), range(5, 9)], p)
        b = main2_classify(chi(5, 4), [range(5), range(5, 9)], p)
        assert a.as_dict() == b.as_dict()

    def test_non_equitable_parts_flagged(self):
        p = RegimeParams(eps=1e-4, d=0.0, t=2)
        res = main2_classify(chi(5, 4), [range(7), range(7, 9)], p)
        assert any("equitable" in f for f in res.flags)

    def test_ring_pair_above_exact_cap_is_flagged(self):
        # red across three parts, blue inside: a red triangle in the reduced
        # graph whose parts exceed EXACT_REGULARITY_CAP, so randomized mode
        # accepts the ring without an exact re-check and must say so
        size = EXACT_REGULARITY_CAP + 1
        n = 3 * size
        mask = 0
        for a in range(n):
            for b in range(a + 1, n):
                if a // size != b // size:
                    mask |= 1 << pair_index(a, b, n)
        parts = [range(i * size, (i + 1) * size) for i in range(3)]
        p = RegimeParams(eps=1e-3, d=0.0, t=3)
        res = main2_classify(TwoColoring(n, mask), parts, p, reg_mode="randomized", seed=4)
        assert res.case == "case1" and res.color == "red"
        unverified = [f for f in res.flags if "not verified" in f]
        assert len(unverified) == 3
        ring = list(res.ring_parts)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            assert any(f"({a},{b})" in f for f in unverified)
