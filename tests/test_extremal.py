"""Extremal colorings, the extremality parameter, cleanup, the structural
claim verifiers, and the case-2 decision tree."""

import random
from math import factorial

import pytest

from ramseykit.errors import (
    DecisionTreeExhaustedError,
    HypothesisError,
    PreconditionError,
    TwoMatchingExistsError,
)
from ramseykit import battery, extremal
from ramseykit.battery import run_battery
from ramseykit.extremal import (
    alternating_bound,
    alternating_lengths,
    bridged_cliques_bound,
    bridged_cliques_lengths,
    case2_lower_bound,
    chi,
    claim_common_neighbor_bound,
    cleanup,
    common_neighbor_lengths,
    extremal_inequalities,
    extremal_parameter,
    partition_parameter,
    two_matching_reduction,
    verify_claim_alternating,
    verify_claim_bridged_cliques,
    verify_claim_common_neighbor,
)
from ramseykit.graphs import PatternGraph, SimpleGraph, TwoColoring, mono_counts, pair_index

from .helpers import check_two_matching_against_oracle


def flip_edges(c: TwoColoring, pairs) -> TwoColoring:
    mask = c.red_mask
    for i, j in pairs:
        mask ^= 1 << pair_index(i, j, c.n)
    return TwoColoring(c.n, mask)


class TestChi:
    def test_monochromatic_cycle_counts(self):
        assert mono_counts(chi(5, 4), PatternGraph.cycle(5)) == (0, 12)
        assert mono_counts(chi(4, 4), PatternGraph.cycle(5)) == (0, 0)
        assert mono_counts(chi(7, 6), PatternGraph.cycle(7)) == (0, 360)

    def test_single_red_edge(self):
        c = chi(1, 1)
        assert c.n == 2 and c.red_mask == 1

    def test_structure(self):
        c = chi(3, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not c.is_red(i, j)
        for i in range(3):
            for j in range(3, 5):
                assert c.is_red(i, j)

    def test_size_validation(self):
        with pytest.raises(PreconditionError):
            chi(0, 3)


class TestExtremalParameter:
    def test_balanced_chi_is_perfectly_extremal(self):
        a = extremal_parameter(chi(5, 5))
        assert a.lambda_star == 0.0
        assert a.color_role == "blue"

    def test_chi_5_4_binding_size_constraint(self):
        a = extremal_parameter(chi(5, 4))
        assert abs(a.lambda_star - 1 / 18) < 1e-12
        assert set(a.partition[0]) in ({0, 1, 2, 3, 4}, {5, 6, 7, 8})

    def test_all_red_k6(self):
        a = extremal_parameter(TwoColoring(6, (1 << 15) - 1))
        assert a.lambda_star == 1.0

    def test_role_swap_and_relabel_invariance(self):
        base = extremal_parameter(chi(5, 4)).lambda_star
        assert abs(extremal_parameter(chi(4, 5)).lambda_star - base) < 1e-12
        rng = random.Random(2)
        perm = list(range(9))
        rng.shuffle(perm)
        assert abs(extremal_parameter(chi(5, 4).permuted(perm)).lambda_star - base) < 1e-12

    def test_local_search_upper_bounds_exact(self):
        rng = random.Random(3)
        for _ in range(5):
            c = TwoColoring(8, rng.randrange(1 << 28))
            exact = extremal_parameter(c).lambda_star
            local = extremal_parameter(c, mode="local-search", seed=11).lambda_star
            assert local >= exact - 1e-12

    def test_local_search_pinned_on_random_30_vertex_coloring(self):
        # values from the search that rebuilt both colour graphs per flip
        rng = random.Random(2021)
        c = TwoColoring(30, rng.getrandbits(435))
        a = extremal_parameter(c, mode="local-search", seed=1)
        assert a.lambda_star == 0.38735177865612647  # 1 - 155/253, red inside B
        assert a.color_role == "red"
        assert a.partition[0] == (5, 6, 13, 18, 19, 25, 28)
        assert a.partition[1] == tuple(v for v in range(30) if v not in a.partition[0])

    def test_below_lambda_star_some_inequality_fails(self):
        c = chi(5, 4)
        a = extremal_parameter(c)
        for role in ("red", "blue"):
            for a_mask_set in ({0, 1, 2}, {0, 1, 2, 3, 4}, {0, 5, 6}):
                lam_p = partition_parameter(c, a_mask_set, role)
                assert lam_p >= a.lambda_star - 1e-12

    def test_exact_scan_is_the_least_partition_parameter(self):
        # one measure behind the exact scan, the per-partition parameter and
        # the inequality rows: over every bipartition and both roles, the
        # scan's minimum is bit for bit the least partition_parameter, and
        # each partition's rows hold at its own parameter
        rng = random.Random(2027)
        for _ in range(60):
            n = rng.randint(2, 8)
            c = TwoColoring(n, rng.getrandbits(n * (n - 1) // 2))
            lams = []
            for a_mask in range(1, (1 << n) - 1):
                a_set = [v for v in range(n) if a_mask >> v & 1]
                b_set = [v for v in range(n) if not a_mask >> v & 1]
                for role in ("red", "blue"):
                    lam = partition_parameter(c, a_set, role)
                    lams.append(lam)
                    rows = extremal_inequalities(c, a_set, b_set, lam, role)
                    assert all(ok for _, ok, _, _ in rows), (n, a_set, role, rows)
            assert extremal_parameter(c).lambda_star == min(lams)

    def test_chunked_scan_keeps_the_first_minimum(self, monkeypatch):
        # a scan in chunks of 5 masks returns what one pass over every mask
        # does: the least partition_parameter, at the first mask in
        # ascending order (vertex 0 in A), red before blue
        monkeypatch.setattr(extremal, "_SCAN_CHUNK", 5)
        rng = random.Random(2029)
        for _ in range(40):
            n = rng.randint(2, 10)
            c = TwoColoring(n, rng.getrandbits(n * (n - 1) // 2))
            if rng.random() < 0.3:
                c = chi(n // 2, n - n // 2)
            best = None
            for role in ("red", "blue"):
                for a_mask in range(1, (1 << n) - 1, 2):
                    lam = partition_parameter(c, [v for v in range(n) if a_mask >> v & 1], role)
                    if best is None or lam < best[0]:
                        best = (lam, a_mask, role)
            got = extremal_parameter(c)
            a_set = tuple(v for v in range(n) if best[1] >> v & 1)
            assert (got.lambda_star, got.partition[0], got.color_role) == (best[0], a_set, best[2])

    def test_single_vertex_errors(self):
        with pytest.raises(PreconditionError):
            extremal_parameter(TwoColoring(1, 0))

    def test_local_search_requires_seed(self):
        with pytest.raises(PreconditionError):
            extremal_parameter(chi(3, 3), mode="local-search")


class TestCleanup:
    def test_pristine_chi_keeps_everything(self):
        cw = chi(5, 4).swapped()  # red within parts, blue across
        res = cleanup(cw, range(5), range(5, 9), 0.01)
        assert res.x == () and res.y == ()
        assert res.a_prime == tuple(range(5))

    def test_flipped_edge_survives_at_larger_lambda(self):
        cw = flip_edges(chi(5, 4).swapped(), [(0, 1)])
        res = cleanup(cw, range(5), range(5, 9), 0.2)
        assert res.x == ()

    def test_density_precondition_error_names_inequality(self):
        allred = TwoColoring(6, (1 << 15) - 1)
        with pytest.raises(PreconditionError, match="cross blue density"):
            cleanup(allred, range(3), range(3, 6), 0.01)

    def test_size_bounds_on_random_near_extremal_colorings(self):
        rng = random.Random(7)
        for _ in range(25):
            a, b = rng.choice([(5, 4), (6, 6), (7, 6)])
            base = chi(a, b).swapped()
            pairs = []
            for _ in range(rng.randint(0, 2)):
                u = rng.randrange(a + b)
                v = rng.randrange(a + b)
                if u != v:
                    pairs.append((min(u, v), max(u, v)))
            c = flip_edges(base, pairs)
            lam = 0.45
            try:
                res = cleanup(c, range(a), range(a, a + b), lam)
            except PreconditionError:
                continue  # a flip broke the density precondition; not this test's target
            root = lam ** 0.5
            assert len(res.x) <= 2 * root * a + 1e-9
            assert len(res.y) <= 2 * root * b + 1e-9
            assert set(res.a_prime) | set(res.x) == set(range(a))
            assert set(res.b_prime) | set(res.y) == set(range(a, a + b))


class TestClaimBounds:
    def test_common_neighbor_bound_values(self):
        assert claim_common_neighbor_bound(5, 5, 5) == 48
        assert claim_common_neighbor_bound(1, 2, 3) == 1
        assert claim_common_neighbor_bound(4, 4, 7) == 8

    @pytest.mark.parametrize("l", range(3, 9))
    def test_cycle_bounds_need_l_at_least_7(self, l):
        for bound in (bridged_cliques_bound, alternating_bound):
            if l < 7:
                with pytest.raises(PreconditionError, match="l >= 7"):
                    bound(l)
            else:
                val, threshold = bound(l)
                assert 0 <= threshold <= val

    def test_range_validation(self):
        with pytest.raises(PreconditionError):
            claim_common_neighbor_bound(5, 5, 4)  # even length
        with pytest.raises(PreconditionError):
            claim_common_neighbor_bound(1, 5, 5)  # l > 2s+1

    def test_each_claim_has_one_length_rule(self):
        # the inline rules that the bound, the verifier, the case-2 tree and
        # the battery each wrote out before
        for a in range(13):
            for b in range(13):
                assert list(common_neighbor_lengths(a, b)) == [
                    l for l in range(30) if l % 2 == 1 and 3 <= l <= min(2 * a + 1, 2 * b - 1)]
                assert list(bridged_cliques_lengths(a, b)) == [
                    l for l in range(30) if 7 <= l <= min(2 * a - 1, 2 * b - 1)]
                assert list(alternating_lengths(a, b)) == [
                    l for l in range(30) if l % 2 == 1 and 7 <= l <= min(2 * a + 1, 2 * b + 1)]

    def test_the_battery_counts_instances_whose_threshold_is_zero(self):
        # the bridged-cliques and alternating generators draw l in {7, 9},
        # where both bounds floor to 0
        reports = {claim: run_battery(claim, 200, seed=2026)
                   for claim in ("common-neighbor", "bridged-cliques", "alternating")}
        assert reports["bridged-cliques"].zero_threshold == 200
        assert reports["alternating"].zero_threshold == 200
        assert reports["common-neighbor"].zero_threshold < 200
        for report in reports.values():
            assert report.all_passed
            assert report.as_dict()["zero_threshold"] == report.zero_threshold


def one_edge_plus_bipartite(ns=5, nt=5) -> SimpleGraph:
    edges = [(0, 1)] + [(i, j) for i in range(ns) for j in range(ns, ns + nt)]
    return SimpleGraph.from_edges(ns + nt, edges)


class TestCommonNeighborVerifier:
    def test_spec_instance_l5(self):
        res = verify_claim_common_neighbor(one_edge_plus_bipartite(), range(5), range(5, 10), 5)
        assert (res.threshold, res.exact_count, res.passed) == (48, 60, True)

    def test_spec_instance_l3(self):
        res = verify_claim_common_neighbor(one_edge_plus_bipartite(), range(5), range(5, 10), 3)
        assert (res.threshold, res.exact_count, res.passed) == (5, 5, True)

    def test_no_internal_edge_is_hypothesis_error(self):
        g = SimpleGraph.complete_bipartite(5, 5)
        with pytest.raises(HypothesisError, match="no edge inside S"):
            verify_claim_common_neighbor(g, range(5), range(5, 10), 5)

    def test_range_error_names_worst_pair(self):
        g = SimpleGraph.from_edges(6, [(0, 1), (0, 3), (1, 3)])
        with pytest.raises(PreconditionError, match="common neighbors"):
            verify_claim_common_neighbor(g, [0, 1, 2], [3, 4, 5], 5)


def two_cliques_with_bridges(ns=5, nt=5, l1=(0, 5), l2=(1, 6)):
    edges = [(i, j) for i in range(ns) for j in range(i + 1, ns)]
    edges += [(ns + i, ns + j) for i in range(nt) for j in range(i + 1, nt)]
    edges += [l1, l2]
    return SimpleGraph.from_edges(ns + nt, edges)


class TestBridgedCliquesVerifier:
    def test_degenerate_bound_at_l7(self):
        g = two_cliques_with_bridges()
        res = verify_claim_bridged_cliques(g, range(5), range(5, 10), (0, 5), (1, 6), 7)
        assert res.threshold == 0 and res.passed and res.exact_count >= 1

    def test_l9_on_k7_cliques(self):
        g = two_cliques_with_bridges(7, 7, (0, 7), (1, 8))
        res = verify_claim_bridged_cliques(g, range(7), range(7, 14), (0, 7), (1, 8), 9)
        assert res.threshold == 0  # (1/e)^3 < 1
        assert res.passed

    def test_overlapping_paths_rejected(self):
        g = two_cliques_with_bridges(l1=(0, 5), l2=(0, 6))
        with pytest.raises(HypothesisError, match="share a vertex"):
            verify_claim_bridged_cliques(g, range(5), range(5, 10), (0, 5), (0, 6), 7)

    def test_not_a_clique_rejected(self):
        g = SimpleGraph.from_edges(10, [(0, 5), (1, 6)])
        with pytest.raises(HypothesisError, match="not a clique"):
            verify_claim_bridged_cliques(g, range(5), range(5, 10), (0, 5), (1, 6), 7)


class TestAlternatingVerifier:
    @staticmethod
    def build(ns=4, nt=4):
        edges = [(i, j) for i in range(ns) for j in range(ns, ns + nt)]
        m = ns + nt
        edges += [(0, m), (m, ns)]
        return SimpleGraph.from_edges(ns + nt + 1, edges)

    def test_spec_instance(self):
        g = self.build()
        res = verify_claim_alternating(g, range(4), range(4, 8), 0, (0, 8, 4), 7)
        assert res.threshold == 0 and res.passed and res.exact_count >= 1

    def test_boundary_size_accepted(self):
        # l = 7 = 2|S|+1 with |S| = 3: inclusive boundary
        edges = [(i, j) for i in range(3) for j in range(3, 10)]
        edges += [(0, 10), (10, 3)]
        g = SimpleGraph.from_edges(11, edges)
        res = verify_claim_alternating(g, range(3), range(3, 10), 0, (0, 10, 3), 7)
        assert res.passed

    def test_w_without_t_neighbor_rejected(self):
        edges = [(i, j) for i in range(1, 4) for j in range(4, 8)]
        m = 8
        edges += [(1, m), (m, 4)]
        g = SimpleGraph.from_edges(9, edges)
        with pytest.raises(HypothesisError, match="no neighbor in T"):
            verify_claim_alternating(g, range(4), range(4, 8), 0, (1, 8, 4), 7)


class TestTwoMatching:
    def test_star_into_t_removes_center(self):
        g = SimpleGraph.from_edges(6, [(0, 3), (1, 3), (2, 3)])
        assert two_matching_reduction(g, [0, 1, 2], [3, 4, 5]) == 3

    def test_single_edge_removes_s_endpoint(self):
        g = SimpleGraph.from_edges(6, [(0, 4)])
        assert two_matching_reduction(g, [0, 1, 2], [3, 4, 5]) == 0

    def test_no_edge_needs_nothing(self):
        g = SimpleGraph.from_edges(6, [])
        assert two_matching_reduction(g, [0, 1, 2], [3, 4, 5]) is None

    def test_matching_error_carries_disjoint_edges(self):
        g = SimpleGraph.from_edges(6, [(0, 3), (1, 4)])
        with pytest.raises(TwoMatchingExistsError) as err:
            two_matching_reduction(g, [0, 1, 2], [3, 4, 5])
        (a1, b1), (a2, b2) = err.value.matching
        assert len({a1, b1, a2, b2}) == 4
        assert g.has_edge(a1, b1) and g.has_edge(a2, b2)

    def test_exhaustive_small_sizes(self):
        for ns in range(1, 4):
            for nt in range(1, 4):
                for code in range(1 << (ns * nt)):
                    rows = [(code >> (nt * i)) & ((1 << nt) - 1) for i in range(ns)]
                    assert check_two_matching_against_oracle(rows, ns, nt) is None


def _none_with_an_edge(f, s_vs, t_vs):
    return None


def _vertex_leaving_an_edge(f, s_vs, t_vs):
    removed = two_matching_reduction(f, s_vs, t_vs)
    if removed is None:
        return None
    edges = [(u, v) for u in s_vs for v in t_vs if f.has_edge(u, v)]
    return next((v for v in s_vs + t_vs if any(v not in e for e in edges)), removed)


def _vertex_on_an_edgeless_graph(f, s_vs, t_vs):
    removed = two_matching_reduction(f, s_vs, t_vs)
    return s_vs[0] if removed is None else removed


def _matching_sharing_a_vertex(f, s_vs, t_vs):
    try:
        return two_matching_reduction(f, s_vs, t_vs)
    except TwoMatchingExistsError as err:
        first, _ = err.matching
        raise TwoMatchingExistsError(first, first)


def _matching_with_a_non_edge(f, s_vs, t_vs):
    try:
        return two_matching_reduction(f, s_vs, t_vs)
    except TwoMatchingExistsError as err:
        first, second = err.matching
        non_edge = next(((a, b) for a in s_vs for b in t_vs
                         if not f.has_edge(a, b) and not {a, b} & set(first)), second)
        raise TwoMatchingExistsError(first, non_edge)


class TestTwoMatchingBattery:
    def test_every_shipped_verdict_passes_its_certificate_check(self):
        for ns in range(1, 4):
            for nt in range(1, 4):
                s_vs, t_vs = list(range(ns)), list(range(ns, ns + nt))
                for code in range(1 << (ns * nt)):
                    edges = [(i, ns + j) for i in range(ns) for j in range(nt)
                             if code >> (nt * i + j) & 1]
                    f = SimpleGraph.from_edges(ns + nt, edges)
                    assert battery._check_two_matching(f, s_vs, t_vs) == (False, None)

    @pytest.mark.parametrize("mutant", [
        _none_with_an_edge,
        _vertex_leaving_an_edge,
        _vertex_on_an_edgeless_graph,
        _matching_sharing_a_vertex,
        _matching_with_a_non_edge,
    ], ids=lambda mutant: mutant.__name__.strip("_"))
    def test_a_wrong_reduction_fails_the_battery(self, monkeypatch, mutant):
        monkeypatch.setattr(battery, "two_matching_reduction", mutant)
        report = run_battery("two-matching", 200, seed=2026)
        assert report.checked == 200 and report.failures and not report.all_passed
        for failure in report.failures:
            assert set(failure) == {"instance", "edges", "error"}


class TestCaseTwo:
    def test_chi_5_4_fires_fallback(self):
        cert = case2_lower_bound(chi(5, 4), 5, range(5), range(5, 9), 0.1)
        assert cert.claim_used == "red-clique-K_k"
        assert cert.bound == 12
        assert cert.color_swapped  # chi has blue inside the parts

    def test_chi_7_6_fires_fallback(self):
        cert = case2_lower_bound(chi(7, 6), 7, range(7), range(7, 13), 0.1)
        assert cert.bound == factorial(6) // 2 == 360

    def test_within_part_flip_fires_common_neighbor(self):
        c = flip_edges(chi(5, 4).swapped(), [(0, 1)])
        cert = case2_lower_bound(c, 5, range(5), range(5, 9), 0.2)
        assert cert.claim_used == "blue-edge-in-clique"
        assert cert.bound == 27  # s=4, |S|=5, l=5: 3^2 * 3
        assert cert.bound <= sum(mono_counts(c, PatternGraph.cycle(5)))

    def test_small_k_bridge_structure_is_an_honest_dead_end(self):
        # two disjoint recolored cross edges need the bridge claim, which
        # starts at cycle length 7; at k = 5 the tree must say so
        c = flip_edges(chi(5, 4).swapped(), [(0, 5), (1, 6)])
        with pytest.raises(DecisionTreeExhaustedError, match="outside claim range"):
            case2_lower_bound(c, 5, range(5), range(5, 9), 0.3)

    def test_cross_flips_at_k7_certify(self):
        c = flip_edges(chi(7, 6).swapped(), [(0, 7), (1, 8)])
        cert = case2_lower_bound(c, 7, range(7), range(7, 13), 0.2)
        assert cert.claim_used == "two-red-bridges"
        assert cert.bound <= sum(mono_counts(c, PatternGraph.cycle(7)))

    def test_degraded_vertex_fires_blue_two_path(self):
        # vertex 0 loses most of its in-part red degree, lands in X, and
        # keeps blue edges into both cleaned parts: a blue two-path middle
        c = flip_edges(chi(7, 6).swapped(), [(0, 1), (0, 2), (0, 3), (0, 4)])
        cert = case2_lower_bound(c, 7, range(7), range(7, 13), 0.4)
        assert cert.claim_used == "blue-two-path"
        assert cert.witness_structure["P_prime"][1] == 0
        assert cert.bound <= sum(mono_counts(c, PatternGraph.cycle(7)))

    def test_not_extremal_is_precondition_error(self):
        rng = random.Random(1)
        c = TwoColoring(9, rng.randrange(1 << 36))
        with pytest.raises(PreconditionError, match="not extremal"):
            case2_lower_bound(c, 5, range(5), range(5, 9), 0.05)

    def test_certificate_soundness_small_batch(self):
        rng = random.Random(42)
        certified = 0
        for _ in range(12):
            base = chi(5, 4).swapped()
            npairs = rng.randint(1, 2)
            pairs = set()
            while len(pairs) < npairs:
                u, v = rng.sample(range(9), 2)
                pairs.add((min(u, v), max(u, v)))
            c = flip_edges(base, pairs)
            try:
                cert = case2_lower_bound(c, 5, range(5), range(5, 9), 0.4)
            except (DecisionTreeExhaustedError, PreconditionError):
                continue
            certified += 1
            assert cert.bound <= sum(mono_counts(c, PatternGraph.cycle(5)))
        assert certified >= 4
