"""Independent oracles shared by the test modules.

These deliberately re-derive quantities by the dumbest correct method
available (full enumeration) so the production code is checked against
something that cannot share its bugs.
"""

from itertools import combinations, permutations
from math import comb

from ramseykit.graphs import PatternGraph, SimpleGraph, TwoColoring
from ramseykit.search import _bits_to_coloring, _colex_edges, _colex_index


def pattern_as_graph(h: PatternGraph) -> SimpleGraph:
    k = h.order
    if h.kind == "path":
        return SimpleGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
    if h.kind == "cycle":
        return SimpleGraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])
    if h.kind == "star":
        return SimpleGraph.from_edges(k, [(0, i) for i in range(1, k)])
    if h.kind == "complete":
        return SimpleGraph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    return h.graph


def naive_count_copies(g: SimpleGraph, h: PatternGraph) -> int:
    """Enumerate k-subsets and all vertex bijections; dedup images by edge set."""
    k = h.order
    if k > g.n:
        return 0
    pat = pattern_as_graph(h)
    pat_edges = list(pat.edges())
    found = set()
    for sub in combinations(range(g.n), k):
        for perm in permutations(sub):
            if all(g.has_edge(perm[u], perm[v]) for u, v in pat_edges):
                found.add(
                    frozenset(
                        (min(perm[u], perm[v]), max(perm[u], perm[v]))
                        for u, v in pat_edges
                    )
                )
    return len(found)


def definitional_regularity(g: SimpleGraph, xs, ys, eps: float):
    """Literal quantifier evaluation of eps-regularity; returns a violating
    (U, V) or None."""
    from fractions import Fraction

    xs, ys = list(xs), list(ys)
    my_all = sum(1 << y for y in ys)
    d = Fraction(sum((g.adj[x] & my_all).bit_count() for x in xs), len(xs) * len(ys))
    for usize in range(1, len(xs) + 1):
        if usize < eps * len(xs) - 1e-12:
            continue
        for u in combinations(xs, usize):
            for vsize in range(1, len(ys) + 1):
                if vsize < eps * len(ys) - 1e-12:
                    continue
                for v in combinations(ys, vsize):
                    mv = sum(1 << y for y in v)
                    e = sum((g.adj[x] & mv).bit_count() for x in u)
                    if abs(float(Fraction(e, usize * vsize) - d)) > eps + 1e-15:
                        return u, v
    return None


def random_simple_graph(n: int, p: float, rng) -> SimpleGraph:
    return SimpleGraph.from_edges(
        n,
        [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ],
    )


def reference_copy_masks(h: PatternGraph, n: int) -> list[int]:
    """Every copy of h in K_n as an int bitmask over colex edge indices.

    Walks every k-subset and its vertex permutations and deduplicates
    through a set, independently of the search's template enumerator.
    """
    k = h.order
    if k > n:
        return []
    masks: set[int] = set()

    def edge_mask(edges) -> int:
        m = 0
        for u, v in edges:
            m |= 1 << _colex_index(u, v)
        return m

    for sub in combinations(range(n), k):
        if h.kind == "complete":
            masks.add(edge_mask(combinations(sub, 2)))
        elif h.kind == "star":
            for center in sub:
                masks.add(edge_mask((center, leaf) for leaf in sub if leaf != center))
        elif h.kind == "path":
            # perm[0] < perm[-1] picks one of the two directions
            for perm in permutations(sub):
                if perm[0] < perm[-1]:
                    masks.add(edge_mask(zip(perm, perm[1:])))
        elif h.kind == "cycle":
            a = sub[0]
            for perm in permutations(sub[1:]):
                if perm[0] < perm[-1]:
                    cycle = (a,) + perm
                    masks.add(edge_mask(list(zip(cycle, cycle[1:])) + [(cycle[-1], a)]))
        else:  # explicit
            for perm in permutations(sub):
                masks.add(edge_mask((perm[u], perm[v]) for u, v in h.graph.edges()))
    return sorted(masks)


def mask_rows_as_ints(rows) -> list[int]:
    """Rows of little-endian uint64 words as sorted Python int bitmasks."""
    return sorted(sum(int(x) << 64 * w for w, x in enumerate(row)) for row in rows.tolist())


def multiplicity_bruteforce(h: PatternGraph, n: int) -> tuple[int, TwoColoring]:
    """Unpruned enumeration of all 2^C(n,2) colorings (soundness oracle)."""
    E = comb(n, 2)
    masks = reference_copy_masks(h, n)
    full = (1 << E) - 1
    best, best_mask = None, 0
    for red in range(1 << E):
        blue = full ^ red
        cnt = 0
        for cm in masks:
            if cm & red == cm or cm & blue == cm:
                cnt += 1
        if best is None or cnt < best:
            best, best_mask = cnt, red
    # colex mask -> row-major coloring
    bits = [(0 if best_mask >> e & 1 else 1) for e in range(E)]
    return best, _bits_to_coloring(n, bits)


def reference_transposition_sigmas(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(moved edges ascending, edge permutation) for every vertex transposition of K_n."""
    edges = _colex_edges(n)
    out = []
    for u in range(n):
        for v in range(u + 1, n):
            perm = list(range(n))
            perm[u], perm[v] = v, u
            sigma = tuple(_colex_index(perm[i], perm[j]) for i, j in edges)
            moved = tuple(e for e, s in enumerate(sigma) if s != e)
            if moved:
                out.append((moved, sigma))
    return out


def reference_canonical_violated(x: list[int], sigmas, depth: int) -> bool:
    """Whether some sigma maps the first depth colex edges of x to a lex-smaller prefix.

    Rescans every transposition from its first moved edge, comparing
    x[e] with x[sigma(e)] until a pair leaves the assigned prefix or the
    two differ.
    """
    for moved, sigma in sigmas:
        for e in moved:
            if e >= depth:
                break
            je = sigma[e]
            if je >= depth:
                break
            a = x[e]
            b = x[je]
            if b != a:
                if b < a:
                    return True
                break
    return False
