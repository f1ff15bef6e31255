"""Independent oracles shared by the test modules.

These deliberately re-derive quantities by the dumbest correct method
available (full enumeration) so the production code is checked against
something that cannot share its bugs.
"""

import time
from itertools import combinations, permutations
from math import comb, inf
from typing import Optional

import numpy as np

from ramseykit.errors import TwoMatchingExistsError
from ramseykit.extremal import two_matching_reduction
from ramseykit.graphs import PatternGraph, SimpleGraph, TwoColoring, _bits
from ramseykit.search import (
    _WORD,
    SearchStats,
    _bits_to_coloring,
    _colex_edges,
    _colex_index,
    _Engine,
)


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


def max_matching_at_least(rows: list[int], k: int) -> bool:
    """Augmenting-path check: does the bipartite row-mask graph have a
    matching of size >= k?"""
    match_of_col: dict[int, int] = {}

    def augment(r: int, seen: set[int]) -> bool:
        mask = rows[r]
        while mask:
            low = mask & -mask
            col = low.bit_length() - 1
            mask ^= low
            if col in seen:
                continue
            seen.add(col)
            if col not in match_of_col or augment(match_of_col[col], seen):
                match_of_col[col] = r
                return True
        return False

    size = 0
    for r in range(len(rows)):
        if augment(r, set()):
            size += 1
            if size >= k:
                return True
    return size >= k


def check_two_matching_against_oracle(rows: list[int], ns: int, nt: int) -> Optional[str]:
    """One agreement check; returns an error description or None."""
    f = SimpleGraph.from_edges(
        ns + nt,
        [(i, ns + j) for i, r in enumerate(rows) for j in range(nt) if r >> j & 1],
    )
    s_vs = list(range(ns))
    t_vs = list(range(ns, ns + nt))
    has_two = max_matching_at_least(rows, 2)
    try:
        removed = two_matching_reduction(f, s_vs, t_vs)
    except TwoMatchingExistsError as err:
        if not has_two:
            return f"reduction claims a 2-matching {err.matching}, oracle disagrees"
        (a1, b1), (a2, b2) = err.matching
        if len({a1, b1, a2, b2}) != 4 or not (f.has_edge(a1, b1) and f.has_edge(a2, b2)):
            return f"reduction returned an invalid 2-matching {err.matching}"
        return None
    if has_two:
        return "oracle finds a 2-matching but the reduction removed one vertex"
    keep = [v for v in range(ns + nt) if v != removed]
    for u in s_vs:
        for v in t_vs:
            if u in keep and v in keep and f.has_edge(u, v):
                return f"removal of {removed} leaves edge ({u}, {v})"
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


def reference_local_copies(h: PatternGraph) -> tuple[int, list[tuple[int, ...]]]:
    """search._local_copies by sets: k' and the sorted distinct local colex edge lists.

    Walks the vertex permutations of each kind in Python and deduplicates
    the sorted edge lists through a set.
    """
    k = h.order
    sub = range(k)
    if h.kind == "complete":
        copies = [combinations(sub, 2)]
    elif h.kind == "star":
        copies = [[(c, leaf) for leaf in sub if leaf != c] for c in sub]
    elif h.kind == "path":
        copies = (zip(p, p[1:]) for p in permutations(sub) if p[0] < p[-1])
    elif h.kind == "cycle":
        copies = (zip((0,) + p, p + (0,)) for p in permutations(range(1, k)) if p[0] < p[-1])
    else:  # explicit: drop the isolated vertices first
        edges = list(h.graph.edges())
        used = sorted({v for e in edges for v in e})
        relabel = {v: i for i, v in enumerate(used)}
        edges = [(relabel[u], relabel[v]) for u, v in edges]
        k = len(used)
        copies = ([(p[u], p[v]) for u, v in edges] for p in permutations(range(k)))
    return k, sorted({tuple(sorted(_colex_index(u, v) for u, v in c)) for c in copies})


def mask_rows_as_ints(table) -> list[int]:
    """A copy table's rows as Python int bitmasks, in row order: column w holds edges 64w.."""
    columns = [column.tolist() for column in table.columns]
    return [sum(int(x) << 64 * w for w, x in enumerate(row)) for row in zip(*columns)]


def reference_by_last(table, num_edges: int) -> list[list[int]]:
    """A copy table's rows as Python ints, bucketed by their highest set bit, in row order."""
    buckets: list[list[int]] = [[] for _ in range(num_edges)]
    for mask in mask_rows_as_ints(table):
        buckets[mask.bit_length() - 1].append(mask)
    return buckets


def seed_colorings(n: int) -> list[TwoColoring]:
    """Every seed coloring of K_n in the search's order: all blue, then chi(a, n - a), a <= n/2."""
    from ramseykit.extremal import chi

    return [TwoColoring(n, 0)] + [chi(a, n - a) for a in range(1, n // 2 + 1)]


def multiplicity_bruteforce(h: PatternGraph, n: int) -> tuple[int, TwoColoring]:
    """Unpruned enumeration of all 2^C(n,2) colorings (soundness oracle).

    Every colex red mask at once, as a numpy array, for n <= 7; a copy is
    monochromatic when the red mask holds all of it or none of it.
    """
    E = comb(n, 2)
    red = np.arange(1 << E, dtype=np.int64)
    counts = np.zeros(1 << E, dtype=np.int64)
    for cm in reference_copy_masks(h, n):
        part = red & cm
        counts += (part == cm) | (part == 0)
    best_mask = int(counts.argmin())  # the first of the fewest
    # colex mask -> row-major coloring
    bits = [(0 if best_mask >> e & 1 else 1) for e in range(E)]
    return int(counts[best_mask]), _bits_to_coloring(n, bits)


def reference_sigmas(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(moved edges ascending, edge permutation) for every sigma the search checks on K_n.

    The C(n,2) vertex transpositions (u v) in lex order, then the C(n-2,2)
    double transpositions (a a+1)(c c+1), a + 1 < c, in lex order of (a, c),
    each read off all C(n,2) edges.
    """
    swaps = [[(u, v)] for u in range(n) for v in range(u + 1, n)]
    swaps += [[(a, a + 1), (c, c + 1)] for a in range(n - 1) for c in range(a + 2, n - 1)]
    edges = _colex_edges(n)
    out = []
    for pairs in swaps:
        perm = list(range(n))
        for u, v in pairs:
            perm[u], perm[v] = v, u
        sigma = tuple(_colex_index(perm[i], perm[j]) for i, j in edges)
        moved = tuple(e for e, s in enumerate(sigma) if s != e)
        out.append((moved, sigma))
    return out


def reference_canonical_violated(x: list[int], sigmas, depth: int) -> bool:
    """Whether some sigma maps the first depth colex edges of x to a lex-smaller prefix.

    Rescans every sigma from its first moved edge, comparing
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


class _Exhausted(Exception):
    """A job stopped before branch args[1] at depth args[0]."""


class ReferenceEngine(_Engine):
    """The search engine as a recursive DFS with the full-rescan canonicity check.

    Same board, node order, tests and pending prefixes as search._Engine,
    whose flat loop and tables must prune exactly the nodes this rescan of
    every transposition and double prunes. Each node is tested for
    symmetry first, then for the bound, whose copy count reads the
    reference buckets with no early break. On a board where the engine
    scores the last vertex's star, a node below edge C(n-1,2) - 1 tries
    every colouring of the star, in order of its bits, with no symmetry
    test and no node counted, unless the prefix forces star edges. Python
    recursion limits it to boards of under about 1,000 edges.
    """

    def __init__(self, masks, n):
        super().__init__(masks, n)
        self.reference_sigmas = reference_sigmas(n)
        self.words = len(masks.columns)
        self.reference_buckets = [
            np.array([[m >> 64 * w & _WORD for w in range(self.words)] for m in bucket],
                     dtype=np.uint64).reshape(-1, self.words)
            for bucket in reference_by_last(masks, self.E)
        ]
        # the depth of the star's first edge, where the engine scores it
        self.star_from = None if self.star is None else comb(n - 1, 2)

    def run(self, prefix, cap, cap_bits, max_nodes, deadline=inf):
        self.prefix = prefix
        self.best, self.best_bits = cap, cap_bits
        self.max_nodes, self.deadline = max_nodes, deadline
        self.stats = SearchStats()
        self.x = x = [0] * self.E
        self.red = self.blue = 0
        try:
            self._dfs(0, 0, self.tied)
            pending = []
        except _Exhausted as stop:
            depth, b = stop.args
            if depth < len(prefix):
                pending = [prefix]
            else:
                # the stopped node's branches from b on (edge 0 is only ever red),
                # then the blue branch of each ancestor below the prefix on red
                pending = [x[:depth] + [c] for c in range(b, 2 if depth else 1)]
                pending += [x[:i] + [1] for i in reversed(range(max(len(prefix), 1), depth))
                            if x[i] == 0]
        return self.best, self.best_bits, self.stats, pending

    def _tied_after(self, depth, tied):
        """tied, or -1 when some sigma maps the first depth + 1 edges lex-lower."""
        violated = reference_canonical_violated(self.x, self.reference_sigmas, depth + 1)
        return -1 if violated else tied

    def _complete_star(self, depth, decided_mono):
        """Count every colouring s of the star edges depth.. (bit i blue: edge depth + i)."""
        rows = np.concatenate(self.reference_buckets[depth:])
        full = (1 << self.E) - 1
        blue = [self.blue | s << depth for s in range(1 << self.E - depth)]
        red_rows = blue_rows = None
        for w in range(self.words):
            blue_w = np.array([c >> 64 * w & _WORD for c in blue], dtype=np.uint64)
            red_w = np.array([(full ^ c) >> 64 * w & _WORD for c in blue], dtype=np.uint64)
            # (colouring, copy): the copy's edges of the other colour
            on_blue, on_red = rows[:, w] & blue_w[:, None], rows[:, w] & red_w[:, None]
            red_rows = on_blue if red_rows is None else red_rows | on_blue
            blue_rows = on_red if blue_rows is None else blue_rows | on_red
        counts = decided_mono + np.count_nonzero((red_rows == 0) | (blue_rows == 0), axis=1)
        s = int(counts.argmin())  # the first of the fewest
        if counts[s] < self.best:
            self.stats.leaves += 1
            self.best = int(counts[s])
            self.best_bits = self.x[:depth] + [s >> i & 1 for i in range(self.E - depth)]

    def _dfs(self, depth, decided_mono, tied):
        stats = self.stats
        if depth == self.star_from and len(self.prefix) <= depth:
            self._complete_star(depth, decided_mono)
            return
        if depth == self.E:
            stats.leaves += 1
            if decided_mono < self.best:
                self.best = decided_mono
                self.best_bits = self.x.copy()
            return
        if depth < len(self.prefix):
            branches = (self.prefix[depth],)
        elif depth == 0:
            branches = (0,)  # color swap: first edge red WLOG
        else:
            branches = (0, 1)
        for b in branches:
            # the run that left the prefix counted every prefix node but the last
            if depth + 1 >= len(self.prefix):
                stats.nodes += 1
                if stats.nodes > self.max_nodes or (
                    not stats.nodes & 4095 and time.monotonic() > self.deadline
                ):
                    stats.nodes -= 1
                    raise _Exhausted(depth, b)
            self.x[depth] = b
            bit = 1 << depth
            if b == 0:
                self.red |= bit
                other = self.blue
            else:
                self.blue |= bit
                other = self.red
            if tied and self._tied_after(depth, tied) < 0:
                stats.pruned_symmetry += 1
            else:
                # the copies ending at this edge that miss the other colour
                rows = self.reference_buckets[depth]
                words = [other >> 64 * w & _WORD for w in range(self.words)]
                touched = (rows & np.array(words, dtype=np.uint64)).any(axis=1)
                total = decided_mono + len(rows) - int(np.count_nonzero(touched))
                if total >= self.best:
                    stats.pruned_bound += 1
                else:
                    self._dfs(depth + 1, total, tied)
            if b == 0:
                self.red ^= bit
            else:
                self.blue ^= bit


def reference_count_cycles_backtrack(g: SimpleGraph, k: int) -> int:
    """Anchored DFS over the paths (a, v1, ..., v(k-1)) from the least
    vertex a; each k-cycle found twice."""
    adj = g.adj
    total = 0

    def extend(anchor: int, v: int, used: int, depth: int) -> int:
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


def reference_count_paths_backtrack(g: SimpleGraph, k: int) -> int:
    """DFS from every start over walks of k distinct vertices; each path found twice."""
    adj = g.adj

    def extend(v: int, used: int, depth: int) -> int:
        if depth == k:
            return 1
        return sum(extend(w, used | (1 << w), depth + 1) for w in _bits(adj[v] & ~used))

    total = sum(extend(s, 1 << s, 1) for s in range(g.n))
    assert total % 2 == 0
    return total // 2


def reference_count_transversal_paths(sys, w0: int, ell: int) -> int:
    """DFS over the sequences w0 w1 ... w_ell, w_i in V_(i mod t), all distinct."""
    adj = sys.graph.adj

    def rec(v: int, used: int, depth: int) -> int:
        if depth == ell:
            return 1
        total = 0
        for w in sys.classes[(depth + 1) % sys.t]:
            if not used >> w & 1 and adj[v] >> w & 1:
                total += rec(w, used | (1 << w), depth + 1)
        return total

    return rec(w0, 1 << w0, 0)


def reference_count_transversal_paths_between(sys, w0: int, w0_prime: int, ell: int) -> int:
    """DFS over the sequences w0 w1 ... w_(ell-1) w0_prime, interior vertices
    distinct and off both endpoints."""
    adj = sys.graph.adj
    blocked = (1 << w0) | (1 << w0_prime)

    def rec(v: int, used: int, depth: int) -> int:
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


def reference_deviation_table(g: SimpleGraph, vx, vy, my: int):
    """regular._deviation_table as a scan of each subset U in turn.

    For each U the degrees into U are sorted in Python and the m smallest
    and largest summed one m at a time; worst[i][m] keeps the largest
    numerator |e nx ny - E |U| m| over |U| = i, arg[i][m] the vertex mask
    of the first U reaching it (written only when the maximum improves).
    """
    nx, ny = len(vx), len(vy)
    nxy = nx * ny
    edges = sum((g.adj[x] & my).bit_count() for x in vx)
    cols = [g.adj[y] for y in vy]
    worst = [[0] * (ny + 1) for _ in range(nx + 1)]
    arg = [[0] * (ny + 1) for _ in range(nx + 1)]
    umasks = [0] * (1 << nx)  # umasks[bits] = the vertices of vx picked by bits
    for umask_bits in range(1, 1 << nx):
        low = umask_bits & -umask_bits
        umask = umasks[umask_bits] = umasks[umask_bits ^ low] | 1 << vx[low.bit_length() - 1]
        usize = umask_bits.bit_count()
        degs = sorted([(col & umask).bit_count() for col in cols])
        row = worst[usize]
        step = edges * usize
        lo_e = hi_e = target = 0
        for m in range(1, ny + 1):
            lo_e += degs[m - 1]  # the m smallest degrees into U
            hi_e += degs[ny - m]  # the m largest
            target += step  # E |U| m
            num = max(hi_e * nxy - target, target - lo_e * nxy)
            if num > row[m]:
                row[m] = num
                arg[usize][m] = umask
    return worst, arg, edges


def resume_token(version="ramsey-resume/2", pattern="P4", n=5, witness="0" * 10, pending="0"):
    """A resume token written field by field; the defaults make a valid P4@5 token."""
    return f"{version};pattern={pattern};n={n};witness={witness};pending={pending}"
