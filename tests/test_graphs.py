"""Graph core: exact copy counting, cycle spectrum, kcol round-trips."""

import random
import tracemalloc
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit.errors import BudgetExceededError, KcolParseError, PreconditionError
from ramseykit.graphs import (
    PatternGraph,
    SimpleGraph,
    TwoColoring,
    count_copies,
    cycle_spectrum,
    decode,
    encode,
    mono_counts,
    pair_index,
    pair_iter,
    vertex_set,
)
from ramseykit.extremal import chi, extremal_inequalities, two_matching_reduction
from ramseykit.graphs import (
    MAX_COPY_BYTES, _count_cycles_backtrack, _layer_bytes, _total, count_walks,
)
from ramseykit.regular import (
    RegimeParams,
    check_regularity,
    count_transversal_paths,
    count_transversal_paths_between,
    degree_exception_counts,
    density,
    quasirandom_ring,
    regularity_defect,
)
from ramseykit.stability import build_reduced

from .helpers import (
    naive_count_copies,
    random_simple_graph,
    reference_count_cycles_backtrack,
    reference_count_paths_backtrack,
    reference_count_transversal_paths,
    reference_count_transversal_paths_between,
)


@st.composite
def colorings(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << comb(n, 2)) - 1))
    return TwoColoring(n, mask)


class TestClosedForms:
    def test_cycles_in_complete_graphs(self):
        assert count_copies(SimpleGraph.complete(5), PatternGraph.cycle(5)) == 12
        assert count_copies(SimpleGraph.complete(9), PatternGraph.cycle(5)) == comb(9, 5) * 12

    def test_no_odd_cycle_in_bipartite(self):
        g = SimpleGraph.complete_bipartite(5, 4)
        assert count_copies(g, PatternGraph.cycle(5)) == 0

    def test_paths_in_k4(self):
        assert count_copies(SimpleGraph.complete(4), PatternGraph.path(3)) == 12

    def test_pattern_larger_than_host_is_zero(self):
        assert count_copies(SimpleGraph.complete(4), PatternGraph.cycle(5)) == 0

    def test_star_equals_path_on_three_vertices(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_simple_graph(6, 0.5, rng)
            assert count_copies(g, PatternGraph.star(2)) == count_copies(
                g, PatternGraph.path(3)
            )

    def test_explicit_pattern_cap(self):
        with pytest.raises(PreconditionError):
            PatternGraph.explicit(SimpleGraph.complete(9))


class TestOracleEquivalence:
    PATTERNS = [
        PatternGraph.path(3),
        PatternGraph.path(4),
        PatternGraph.cycle(3),
        PatternGraph.cycle(4),
        PatternGraph.cycle(5),
        PatternGraph.star(2),
        PatternGraph.star(3),
        PatternGraph.complete(3),
        PatternGraph.complete(4),
        PatternGraph.explicit(SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])),
    ]

    def test_matches_naive_enumeration_up_to_seven_vertices(self):
        rng = random.Random(17)
        for n in range(3, 8):
            for _ in range(6):
                g = random_simple_graph(n, rng.choice([0.3, 0.5, 0.8]), rng)
                for h in self.PATTERNS:
                    assert count_copies(g, h) == naive_count_copies(g, h), (n, h)

    def test_dp_and_backtracking_agree(self):
        # the walk DP against the depth-first references, on hosts of 9 and
        # of 17 to 20 vertices (the old boundary of a separate small-host census)
        rng = random.Random(23)
        for n, p, ks in [(9, 0.5, range(3, 8))] * 10 + [(n, 0.3, range(3, 7)) for n in range(17, 21)]:
            g = random_simple_graph(n, p, rng)
            for k in ks:
                assert count_copies(g, PatternGraph.cycle(k)) == reference_count_cycles_backtrack(g, k)
                assert count_copies(g, PatternGraph.path(k)) == reference_count_paths_backtrack(g, k)


def _layer_sizes(g, k, anchors=None):
    """Every _layer_bytes the cycle DP on g checks, over the walks from the
    given least vertices (default all): layer 0, then for each merge the
    old layer's rows and the new one's, each with the new layer's cells.
    The (set, end) cells of each layer are enumerated by brute force; a
    cycle longer than the host is 0 with no layer."""
    if k > g.n:
        return [0]
    anchors = range(g.n) if anchors is None else anchors
    layer = {(1 << a | 1 << v, v) for a in anchors for v in range(a + 1, g.n) if g.adj[a] >> v & 1}
    sizes = [_layer_bytes(len(layer), len(layer), g.n, False)]
    for d in range(k - 3):
        if not layer:
            break
        nxt = {(s | 1 << w, w) for s, v in layer for w in range((s & -s).bit_length(), g.n)
               if g.adj[v] >> w & 1 and not s >> w & 1}
        wide = factorial(d + 3) << 6 >= 1 << 63  # rows of d + 3 vertices hold Python ints
        for rows in (layer, nxt):
            sizes.append(_layer_bytes(len({s for s, _ in rows}), len(nxt), g.n, wide))
        layer = nxt
    return sizes


def _assert_cap_sweep(g, k, rng):
    """The cycle count at caps 0, 1, S - 1, S, one drawn from [0, S + 2] and
    MAX_COPY_BYTES, S the largest layer: the depth-first count when the cap
    is at least S, else BudgetExceededError."""
    size = max(_layer_sizes(g, k))
    want = reference_count_cycles_backtrack(g, k)
    for cap in (0, 1, max(size - 1, 0), size, rng.randint(0, size + 2), MAX_COPY_BYTES):
        if cap < size:
            with pytest.raises(BudgetExceededError):
                _count_cycles_backtrack(g, k, cap)
        else:
            assert _count_cycles_backtrack(g, k, cap) == want, (g.adj, k, cap)


def _random_ring(rng):
    t = rng.randint(2, 4)
    return quasirandom_ring([rng.randint(1, 4) for _ in range(t)], rng.random(), rng)


class TestCappedCycleCount:
    """The (mask, end) walk DP against the depth-first counters it replaced, and its byte cap."""

    def test_matches_reference_dfs_on_random_hosts(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(2, 9)
            g = random_simple_graph(n, rng.random(), rng)
            _assert_cap_sweep(g, rng.randint(3, n + 1), rng)

    def test_path_walks_match_reference_dfs(self):
        rng = random.Random(47)
        for _ in range(200):
            n = rng.randint(2, 8)
            g = random_simple_graph(n, rng.random(), rng)
            k = rng.randint(2, n)
            walks = count_walks(g.adj, [(1 << g.n) - 1] * k)
            assert walks == 2 * reference_count_paths_backtrack(g, k), (g.adj, k)

    def test_transversal_counters_match_reference_dfs(self):
        rng = random.Random(53)
        for _ in range(200):
            sys = _random_ring(rng)
            w0, w1 = rng.choice(sys.classes[0]), rng.choice(sys.classes[0])
            ell = rng.randint(1, 8)
            assert count_transversal_paths(sys, w0, ell) == \
                reference_count_transversal_paths(sys, w0, ell)
            ell = sys.t * rng.randint(1, 3)
            assert count_transversal_paths_between(sys, w0, w1, ell) == \
                reference_count_transversal_paths_between(sys, w0, w1, ell)

    def test_cap_is_exact_at_the_largest_layer(self):
        # the count raises exactly when its largest layer passes the cap
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(3, 9)
            g = random_simple_graph(n, rng.choice([0.4, 0.7, 1.0]), rng)
            k = rng.randint(3, n)
            size = max(_layer_sizes(g, k))
            assert _count_cycles_backtrack(g, k, size) == reference_count_cycles_backtrack(g, k)
            with pytest.raises(BudgetExceededError):
                _count_cycles_backtrack(g, k, size - 1)

    def test_budget_counts_across_anchors(self):
        # C5 in K5, n = 5: a row costs 8 + 8n = 48 bytes and a merged cell 96.
        # Layer 1 holds 12 + 6 + 2 cells from anchors 0, 1 and 2, and both
        # it and layer 0 have 10 rows: 10 * 48 + 20 * 96 = 2,400 bytes.
        # Anchor 0 alone peaks at 1,440 (6 rows of layer 1, 12 cells of
        # layer 2); the cap holds the layers of every anchor at once.
        g = SimpleGraph.complete(5)
        assert max(_layer_sizes(g, 5)) == 2400
        assert max(max(_layer_sizes(g, 5, [a])) for a in range(5)) == 1440
        assert _count_cycles_backtrack(g, 5, 2400) == 12
        for cap in (1440, 2399):
            with pytest.raises(BudgetExceededError):
                _count_cycles_backtrack(g, 5, cap)

    def test_peak_stays_within_the_cap(self):
        # numpy reports its buffers to tracemalloc: C8 on a dense 18-vertex
        # host is refused at 16 MiB and finishes at 64 MiB, and holds at
        # most the cap either way
        g = random_simple_graph(18, 0.9, random.Random(71))
        for cap, finishes in ((16 << 20, False), (64 << 20, True)):
            tracemalloc.start()
            try:
                _count_cycles_backtrack(g, 8, cap)
                finished = True
            except BudgetExceededError:
                finished = False
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert finished == finishes and peak <= cap, (cap, peak)

    def test_budget_sweep_on_ring_hosts_of_10_to_16_vertices(self):
        # rings of classes like countcycle1's hosts, on 10 to 16 vertices
        # and k up to 15, at caps around each count's largest layer; a host
        # whose count passes 1 MiB is redrawn, so the depth-first reference
        # stays fast
        rng = random.Random(59)
        cycles = 0
        for n in range(10, 17):
            for k in sorted({5, 9, 13, 15, n - 1, n} & set(range(3, 16))):
                for _ in range(20):
                    t = rng.choice((3, 5))
                    sizes = [n // t + (i < n % t) for i in range(t)]
                    g = quasirandom_ring(sizes, rng.uniform(0.3, 0.9), rng).graph
                    try:
                        cycles += _count_cycles_backtrack(g, k, 1 << 20)
                    except BudgetExceededError:
                        continue
                    _assert_cap_sweep(g, k, rng)
                    break
        assert cycles > 0


def _path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


class TestWalkKernelExactness:
    """Counts past the int64 cells of the walk DP, on vertex 63, and in closed form."""

    def test_python_int_cells_past_19_vertex_rows(self):
        # rows of more than 19 vertices hold Python ints; the one C25 of the
        # 25-cycle and the one P25 of the 25-vertex path need rows of 25
        assert count_copies(SimpleGraph.cycle(25), PatternGraph.cycle(25)) == 1
        assert count_copies(_path_graph(25), PatternGraph.path(25)) == 1
        assert count_copies(SimpleGraph.cycle(25), PatternGraph.path(25)) == 25
        _assert_cap_sweep(SimpleGraph.cycle(25), 25, random.Random(61))

    def test_totals_past_int64_are_exact(self):
        # int64 cells whose sum passes 2^63 are summed as Python ints
        cells = np.full((2, 3), 1 << 61, np.int64)
        assert _total(cells, 1 << 61) == 6 << 61

    def test_vertex_63(self):
        # vertex sets are uint64 masks; bit 63 is vertex 63 of a 64-vertex host
        assert count_copies(SimpleGraph.cycle(64), PatternGraph.cycle(64)) == 1
        assert count_copies(_path_graph(64), PatternGraph.path(64)) == 1
        assert count_copies(SimpleGraph.cycle(64), PatternGraph.path(7)) == 64
        rng = random.Random(67)
        g = random_simple_graph(64, 0.08, rng)
        for k in (3, 4, 5):
            _assert_cap_sweep(g, k, rng)
            assert count_copies(g, PatternGraph.path(k)) == reference_count_paths_backtrack(g, k)
        # a walk that must end on vertex 63, closing at vertex 0
        triangle = SimpleGraph.from_edges(64, [(0, 63), (62, 63), (0, 62)])
        assert count_walks(triangle.adj, [1 << 62, 1 << 63], close=0) == 1

    def test_closed_forms_on_complete_graphs(self):
        for n in range(1, 13):
            g = SimpleGraph.complete(n)
            for k in range(3, n + 1):
                cycles = comb(n, k) * factorial(k - 1) // 2
                assert count_copies(g, PatternGraph.cycle(k)) == cycles
            for k in range(2, n + 1):
                paths = factorial(n) // (2 * factorial(n - k))
                assert count_copies(g, PatternGraph.path(k)) == paths


class TestMonoCounts:
    def test_all_red_k6_triangles(self):
        c = TwoColoring(6, (1 << 15) - 1)
        assert mono_counts(c, PatternGraph.complete(3)) == (20, 0)

    @settings(max_examples=60, deadline=None)
    @given(colorings())
    def test_color_swap_swaps_components(self, c):
        h = PatternGraph.path(3)
        red, blue = mono_counts(c, h)
        assert mono_counts(c.swapped(), h) == (blue, red)

    @settings(max_examples=40, deadline=None)
    @given(colorings(max_n=6), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, c, rnd):
        perm = list(range(c.n))
        rnd.shuffle(perm)
        for h in (PatternGraph.path(4), PatternGraph.cycle(4), PatternGraph.complete(3)):
            assert mono_counts(c, h) == mono_counts(c.permuted(perm), h)


class TestCycleSpectrum:
    def test_complete_graph_is_pancyclic(self):
        assert sorted(cycle_spectrum(SimpleGraph.complete(5), 5)) == [3, 4, 5]

    def test_bipartite_has_even_lengths_only(self):
        assert sorted(cycle_spectrum(SimpleGraph.complete_bipartite(3, 3), 6)) == [4, 6]

    def test_plain_cycle_has_one_length(self):
        assert sorted(cycle_spectrum(SimpleGraph.cycle(7), 7)) == [7]

    def test_witnesses_are_real_cycles(self):
        rng = random.Random(3)
        g = random_simple_graph(9, 0.4, rng)
        for t, wit in cycle_spectrum(g, 9).items():
            assert len(wit) == t and len(set(wit)) == t
            ring = list(wit) + [wit[0]]
            assert all(g.has_edge(u, v) for u, v in zip(ring, ring[1:]))


class TestColourClasses:
    @staticmethod
    def brute_colourings(g: SimpleGraph, comp: int) -> list[int]:
        """Every class A, least vertex included, with no edge inside A or comp - A."""
        vs = [v for v in range(g.n) if comp >> v & 1]
        out = []
        for bits in range(1 << (len(vs) - 1)):
            a = 1 << vs[0] | sum(1 << v for i, v in enumerate(vs[1:]) if bits >> i & 1)
            if not any(g.adj[v] & side for side in (a, comp ^ a) for v in vs if side >> v & 1):
                out.append(a)
        return out

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=0, max_value=(1 << comb(n, 2)) - 1),
        st.integers(min_value=0, max_value=(1 << n) - 1),
    )))
    def test_components_and_two_colourings(self, case):
        n, edge_mask, alive = case
        g = SimpleGraph.from_edges(
            n, [e for i, e in enumerate(pair_iter(n)) if edge_mask >> i & 1]
        )
        classes = g.colour_classes(alive)
        comps = [even | odd for even, odd, _ in classes]
        assert sum(c.bit_count() for c in comps) == alive.bit_count()
        union = 0
        for c in comps:
            union |= c
        assert union == alive
        leasts = [(c & -c).bit_length() - 1 for c in comps]
        assert leasts == sorted(leasts)
        for (even, odd, proper), comp in zip(classes, comps):
            assert not even & odd
            # no edge to the rest of alive
            assert not any(g.adj[v] & alive & ~comp for v in range(n) if comp >> v & 1)
            # connected: a search from the least vertex inside comp reaches it all
            seen, frontier = comp & -comp, comp & -comp
            while frontier:
                reach = 0
                for v in range(n):
                    if frontier >> v & 1:
                        reach |= g.adj[v]
                frontier = reach & comp & ~seen
                seen |= frontier
            assert seen == comp
            colourings = self.brute_colourings(g, comp)
            assert proper == bool(colourings)
            if proper:
                assert colourings == [even]
                assert odd == comp ^ even

    def test_small_examples(self):
        assert SimpleGraph.complete(4).colour_classes(0) == []
        # C5 from vertex 0: depth 0 {0}, depth 1 {1, 4}, depth 2 {2, 3}
        assert SimpleGraph.cycle(5).colour_classes(0b11111) == [(0b01101, 0b10010, False)]
        # path 0-1-2 and the isolated vertex 3; vertex 1 left out of alive
        path = SimpleGraph.from_edges(4, [(0, 1), (1, 2)])
        assert path.colour_classes(0b1111) == [(0b0101, 0b0010, True), (0b1000, 0, True)]
        assert path.colour_classes(0b1101) == [
            (0b0001, 0, True), (0b0100, 0, True), (0b1000, 0, True)
        ]


class TestKcol:
    def test_spec_examples(self):
        assert encode(TwoColoring(3, 7)) == "3\n7\n"
        assert encode(TwoColoring(3, 0)) == "3\n0\n"

    @settings(max_examples=80, deadline=None)
    @given(colorings(max_n=12))
    def test_round_trip_identity(self, c):
        assert decode(encode(c)) == c

    def test_bad_header(self):
        with pytest.raises(KcolParseError) as err:
            decode("x3\n7\n")
        assert err.value.offset == 0

    def test_non_hex_character_offset(self):
        with pytest.raises(KcolParseError) as err:
            decode("3\nzz\n")
        assert err.value.offset == 2

    def test_wrong_bit_length(self):
        with pytest.raises(KcolParseError) as err:
            decode("10\nabc\n")  # C(10,2)=45 bits -> 12 hex digits
        assert "expected 12" in str(err.value)

    def test_mask_beyond_pair_bits(self):
        with pytest.raises(KcolParseError):
            decode("3\n9\n")  # only 3 pair bits; 0x9 needs bit 3

    def test_trailing_bytes(self):
        with pytest.raises(KcolParseError):
            decode("3\n7\nextra\n")

    def test_missing_newline(self):
        with pytest.raises(KcolParseError):
            decode("3")


class TestRepresentation:
    def test_pair_index_row_major(self):
        assert [pair_index(i, j, 4) for i, j in pair_iter(4)] == list(range(6))

    def test_red_blue_partition_edges(self):
        rng = random.Random(9)
        c = TwoColoring(7, rng.randrange(1 << comb(7, 2)))
        red, blue = c.red_graph(), c.blue_graph()
        assert red.num_edges() + blue.num_edges() == comb(7, 2)
        for i, j in pair_iter(7):
            assert red.has_edge(i, j) != blue.has_edge(i, j)

    def test_adjacency_must_be_symmetric(self):
        with pytest.raises(PreconditionError):
            SimpleGraph(2, (2, 0))

    def test_no_self_loops(self):
        with pytest.raises(PreconditionError):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_pattern_parse(self):
        assert PatternGraph.parse("C5").kind == "cycle"
        assert PatternGraph.parse("p4").k == 4
        assert PatternGraph.parse("K1,3") == PatternGraph.star(3)
        with pytest.raises(PreconditionError):
            PatternGraph.parse("X9")

    @pytest.mark.parametrize("h,text", [
        (PatternGraph.path(4), "P4"),
        (PatternGraph.cycle(5), "C5"),
        (PatternGraph.complete(3), "K3"),
        (PatternGraph.star(1), "S1"),
        (PatternGraph.star(3), "S3"),
        # the claw plus the isolated vertex 4
        (PatternGraph.explicit(SimpleGraph.from_edges(5, [(1, 3), (0, 1), (2, 1)])),
         "G5:0-1,1-2,1-3"),
        (PatternGraph.explicit(SimpleGraph.from_edges(8, [(6, 7)])), "G8:6-7"),
        (PatternGraph.explicit(SimpleGraph(3, (0, 0, 0))), "G3:"),
    ])
    def test_label_is_the_spelling_parse_reads(self, h, text):
        assert h.label() == text
        assert PatternGraph.parse(h.label()) == h

    @pytest.mark.parametrize("text,problem", [
        ("G5:0-5", "has vertex 5 outside 0..4"),
        ("G5:2-2", "has a self-loop at vertex 2"),
        ("G5:0-1,1-0", "repeats edge 0-1"),
        ("G9:0-1", "has 9 vertices, more than 8"),
        ("G5:0-1,", "cannot parse pattern"),
        ("G5", "cannot parse pattern"),
        ("C\u00b2", "cannot parse pattern"),
    ])
    def test_bad_explicit_pattern_is_rejected(self, text, problem):
        with pytest.raises(PreconditionError, match=problem):
            PatternGraph.parse(text)


_K33 = SimpleGraph.complete_bipartite(3, 3)
# Each public entry point that takes vertex sets, called with a list of them.
_ENTRY_POINTS = {
    "density": lambda sets: density(_K33, *sets),
    "check_regularity": lambda sets: check_regularity(_K33, *sets, 0.3),
    "regularity_defect": lambda sets: regularity_defect(_K33, *sets),
    "degree_exception_counts": lambda sets: degree_exception_counts(_K33, *sets, 0.5, 0.1),
    "extremal_inequalities": lambda sets: extremal_inequalities(chi(3, 3), *sets, 0.1, "red"),
    "two_matching_reduction": lambda sets: two_matching_reduction(_K33, *sets),
    "build_reduced": lambda sets: build_reduced(
        chi(3, 3), sets, RegimeParams(eps=0.1, d=0.0, t=2)
    ),
}
_BAD_SETS = {
    "out-of-range": [[0, 1, 6], [3, 4]],
    "overlapping": [[0, 1, 2], [2, 3]],
    "empty-set": [[], [3, 4]],
    "empty-part-list": [],
}


class TestVertexSet:
    def test_sorts_dedupes_and_masks(self):
        assert vertex_set([5, 1, 5, 3], 6, "S") == ((1, 3, 5), 0b101010)
        assert vertex_set(range(0), 6, "S") == ((), 0)

    @pytest.mark.parametrize("vertices", [[0, 6], [-1, 2]])
    def test_range_error_names_the_set(self, vertices):
        with pytest.raises(PreconditionError, match="S has vertices outside 0..5"):
            vertex_set(vertices, 6, "S")

    @pytest.mark.parametrize(
        "entry,case",
        [
            (entry, case)
            for entry in _ENTRY_POINTS
            for case in _BAD_SETS
            # S-T with no edge needs no vertex, so an empty S is valid there;
            # only build_reduced takes a list of sets
            if not (entry == "two_matching_reduction" and case == "empty-set")
            and (case != "empty-part-list" or entry == "build_reduced")
        ],
    )
    def test_public_entry_points_reject(self, entry, case):
        with pytest.raises(PreconditionError) as err:
            _ENTRY_POINTS[entry](_BAD_SETS[case])
        if case == "out-of-range":
            assert "outside 0..5" in str(err.value)
