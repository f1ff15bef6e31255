"""Independent oracles shared by the test modules.

These deliberately re-derive quantities by the dumbest correct method
available (full enumeration) so the production code is checked against
something that cannot share its bugs.
"""

from itertools import combinations, permutations
from math import comb

from ramseykit.errors import BudgetExceededError
from ramseykit.graphs import PatternGraph, SimpleGraph, TwoColoring, _bits
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


class NodeCounter:
    """Counts DFS nodes; BudgetExceededError once more than budget are spent."""

    def __init__(self, budget=None):
        self.budget = budget
        self.spent = 0

    def spend(self):
        self.spent += 1
        if self.budget is not None and self.spent > self.budget:
            raise BudgetExceededError("reference DFS node budget exhausted")


def _counter(budget) -> NodeCounter:
    """The budget argument of the reference DFSs: a node cap, None, or a NodeCounter."""
    return budget if isinstance(budget, NodeCounter) else NodeCounter(budget)


def dfs_nodes(reference, *args) -> int:
    """Nodes a reference DFS visits on args, the unit of the walk DP's budget."""
    counter = NodeCounter()
    reference(*args, budget=counter)
    return counter.spent


def reference_count_cycles_backtrack(g: SimpleGraph, k: int, budget=None) -> int:
    """Anchored DFS over ordered walks; each k-cycle found twice.

    One budget node per path (a, v1, ..., vd), 1 <= d <= k-1, with a the
    least vertex; BudgetExceededError once more than budget are visited.
    """
    counter = _counter(budget)
    adj = g.adj
    total = 0

    def extend(anchor: int, v: int, used: int, depth: int) -> int:
        counter.spend()
        if depth == k - 1:
            return 1 if adj[v] >> anchor & 1 else 0
        found = 0
        for w in _bits(adj[v] & ~used & (-1 << (anchor + 1))):
            found += extend(anchor, w, used | (1 << w), depth + 1)
        return found

    for a in range(g.n):
        for v in _bits(g.adj[a] & (-1 << (a + 1))):
            total += extend(a, v, (1 << a) | (1 << v), 1)
    assert total % 2 == 0
    return total // 2


def reference_count_paths_backtrack(g: SimpleGraph, k: int, budget=None) -> int:
    """DFS from every start over walks of k distinct vertices; each path found twice.

    One budget node per walk of 1 to k vertices.
    """
    counter = _counter(budget)
    adj = g.adj

    def extend(v: int, used: int, depth: int) -> int:
        counter.spend()
        if depth == k:
            return 1
        return sum(extend(w, used | (1 << w), depth + 1) for w in _bits(adj[v] & ~used))

    total = sum(extend(s, 1 << s, 1) for s in range(g.n))
    assert total % 2 == 0
    return total // 2


def reference_count_transversal_paths(sys, w0: int, ell: int, budget=None) -> int:
    """DFS over the sequences w0 w1 ... w_ell, w_i in V_(i mod t), all distinct.

    One budget node per prefix w0 ... w_i, 0 <= i <= ell.
    """
    counter = _counter(budget)
    adj = sys.graph.adj

    def rec(v: int, used: int, depth: int) -> int:
        counter.spend()
        if depth == ell:
            return 1
        total = 0
        for w in sys.classes[(depth + 1) % sys.t]:
            if not used >> w & 1 and adj[v] >> w & 1:
                total += rec(w, used | (1 << w), depth + 1)
        return total

    return rec(w0, 1 << w0, 0)


def reference_count_transversal_paths_between(sys, w0: int, w0_prime: int, ell: int,
                                              budget=None) -> int:
    """DFS over the sequences w0 w1 ... w_(ell-1) w0_prime, interior vertices
    distinct and off both endpoints.

    One budget node per prefix w0 ... w_i, 0 <= i <= ell - 1.
    """
    counter = _counter(budget)
    adj = sys.graph.adj
    blocked = (1 << w0) | (1 << w0_prime)

    def rec(v: int, used: int, depth: int) -> int:
        counter.spend()
        if depth == ell - 1:
            return 1 if adj[v] >> w0_prime & 1 else 0
        total = 0
        for w in sys.classes[(depth + 1) % sys.t]:
            if not (used | blocked) >> w & 1 and adj[v] >> w & 1:
                total += rec(w, used | (1 << w), depth + 1)
        return total

    return rec(w0, 0, 0)


def reference_regularity_defect(g: SimpleGraph, xs, ys) -> float:
    """regularity_defect with one Fraction per deviation, cell maxima in float."""
    from fractions import Fraction

    vx, vy = tuple(sorted(set(xs))), tuple(sorted(set(ys)))
    nx, ny = len(vx), len(vy)
    my = sum(1 << y for y in vy)
    d = Fraction(sum((g.adj[x] & my).bit_count() for x in vx), nx * ny)
    worst = [[0.0] * (ny + 1) for _ in range(nx + 1)]
    for umask_bits in range(1, 1 << nx):
        usize = umask_bits.bit_count()
        umask = 0
        for b in range(nx):
            if umask_bits >> b & 1:
                umask |= 1 << vx[b]
        degs = sorted((g.adj[y] & umask).bit_count() for y in vy)
        prefix = [0]
        for dg in degs:
            prefix.append(prefix[-1] + dg)
        total = prefix[-1]
        for m in range(1, ny + 1):
            lo_e = prefix[m]
            hi_e = total - prefix[ny - m]
            dev = max(
                abs(float(Fraction(hi_e, usize * m) - d)),
                abs(float(Fraction(lo_e, usize * m) - d)),
            )
            if dev > worst[usize][m]:
                worst[usize][m] = dev
    suffix = [[0.0] * (ny + 2) for _ in range(nx + 2)]
    for i in range(nx, 0, -1):
        for j in range(ny, 0, -1):
            suffix[i][j] = max(worst[i][j], suffix[i + 1][j], suffix[i][j + 1])
    best = 1.0
    for u0 in range(1, nx + 1):
        for v0 in range(1, ny + 1):
            lo = max((u0 - 1) / nx, (v0 - 1) / ny)
            hi = min(u0 / nx, v0 / ny)
            if lo >= hi:
                continue
            cand = max(suffix[u0][v0], lo)
            if cand <= hi and cand < best:
                best = cand
    return best


def resume_token(version="ramsey-resume/2", pattern="P4", n=5, witness="0" * 10, pending="0"):
    """A resume token written field by field; the defaults make a valid P4@5 token."""
    return f"{version};pattern={pattern};n={n};witness={witness};pending={pending}"
