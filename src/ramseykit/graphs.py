"""Bitset graphs, red/blue colorings of K_n, and exact subgraph-copy counting.

Every path and cycle count in the package comes from one layered
(mask, end) walk DP, count_walks: copies of paths and cycles here, and the
transversal paths of regular.py. Each caller gives it one allowed vertex
mask per step, an optional closing vertex and an optional node budget,
charged as a depth-first search over the same walks would charge it.
The tests check it against a naive enumeration oracle and against the
depth-first counters kept in tests/helpers.py, budget included.

A "copy" of a pattern H in a host G is a subgraph of G isomorphic to H,
counted once per subgraph (automorphism-deduplicated): the complete graph
K_k contains exactly (k-1)!/2 copies of the k-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceededError, KcolParseError, PreconditionError

# Single machine word per adjacency row; all desk-scale targets fit.
MAX_VERTICES = 64

# General subgraph counting (kind="explicit") is exponential in the pattern;
# larger patterns are out of scope.
EXPLICIT_PATTERN_CAP = 8


def pair_index(i: int, j: int, n: int) -> int:
    """Row-major index of the unordered pair (i, j), i < j, among C(n,2)."""
    if i > j:
        i, j = j, i
    if i == j or j >= n or i < 0:
        raise PreconditionError(f"not a vertex pair of K_{n}: ({i}, {j})")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def pair_iter(n: int) -> Iterator[tuple[int, int]]:
    """Pairs (i, j), i < j, in row-major order (the kcol bit order)."""
    for i in range(n):
        for j in range(i + 1, n):
            yield i, j


def vertex_set(vertices: Iterable[int], n: int, name: str) -> tuple[tuple[int, ...], int]:
    """The vertices sorted and de-duplicated, with their bitmask.

    The one validator of vertex-set inputs: a vertex outside 0..n-1 raises
    PreconditionError naming the set. Emptiness and disjointness are the
    caller's to test, on the masks.
    """
    vs = tuple(sorted(set(vertices)))
    if vs and (vs[0] < 0 or vs[-1] >= n):
        raise PreconditionError(f"{name} has vertices outside 0..{n-1}")
    return vs, sum(1 << v for v in vs)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1 with bitset adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise PreconditionError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if len(self.adj) != self.n:
            raise PreconditionError("adjacency row count != n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise PreconditionError(f"row {v} has bits beyond vertex range")
            if row >> v & 1:
                raise PreconditionError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise PreconditionError(f"asymmetric adjacency at ({v}, {u})")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u}, {v}) outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return SimpleGraph(n, tuple(rows))

    @staticmethod
    def complete(n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return SimpleGraph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "SimpleGraph":
        left = (1 << a) - 1
        right = ((1 << b) - 1) << a
        return SimpleGraph(a + b, tuple(right if v < a else left for v in range(a + b)))

    @staticmethod
    def cycle(n: int) -> "SimpleGraph":
        if n < 3:
            raise PreconditionError("cycle graph needs >= 3 vertices")
        return SimpleGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in _bits(self.adj[v] >> (v + 1) << (v + 1)):
                yield v, u

    def permuted(self, perm: list[int]) -> "SimpleGraph":
        """Relabel: vertex v of the result is vertex perm[v] of self."""
        return SimpleGraph.from_edges(
            self.n, ((perm.index(u), perm.index(v)) for u, v in self.edges())
        )

    def bipartition(self) -> Optional[tuple[int, int]]:
        """Two-color the vertices if possible; returns side masks or None."""
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            queue = [s]
            while queue:
                v = queue.pop()
                for u in _bits(self.adj[v]):
                    if color[u] == -1:
                        color[u] = color[v] ^ 1
                        queue.append(u)
                    elif color[u] == color[v]:
                        return None
        side0 = sum(1 << v for v in range(self.n) if color[v] == 0)
        return side0, ((1 << self.n) - 1) ^ side0


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class PatternGraph:
    """Target pattern whose monochromatic copies get counted.

    kind is one of "path", "cycle", "star", "complete", "explicit".
    k counts vertices for path/cycle/complete; star k means K_{1,k}
    (k leaves, k+1 vertices).
    """

    kind: str
    k: int
    graph: Optional[SimpleGraph] = None

    def __post_init__(self):
        if self.kind == "cycle" and self.k < 3:
            raise PreconditionError("cycle pattern needs k >= 3")
        if self.kind == "path" and self.k < 2:
            raise PreconditionError("path pattern needs k >= 2")
        if self.kind == "star" and self.k < 1:
            raise PreconditionError("star pattern needs k >= 1")
        if self.kind == "complete" and self.k < 1:
            raise PreconditionError("complete pattern needs k >= 1")
        if self.kind == "explicit":
            if self.graph is None:
                raise PreconditionError("explicit pattern needs a graph")
            if self.graph.n > EXPLICIT_PATTERN_CAP:
                raise PreconditionError(
                    f"explicit pattern has {self.graph.n} > {EXPLICIT_PATTERN_CAP} vertices"
                )
        elif self.kind not in ("path", "cycle", "star", "complete"):
            raise PreconditionError(f"unknown pattern kind {self.kind!r}")

    @staticmethod
    def path(k: int) -> "PatternGraph":
        return PatternGraph("path", k)

    @staticmethod
    def cycle(k: int) -> "PatternGraph":
        return PatternGraph("cycle", k)

    @staticmethod
    def star(k: int) -> "PatternGraph":
        return PatternGraph("star", k)

    @staticmethod
    def complete(k: int) -> "PatternGraph":
        return PatternGraph("complete", k)

    @staticmethod
    def explicit(g: SimpleGraph) -> "PatternGraph":
        return PatternGraph("explicit", g.n, g)

    @property
    def order(self) -> int:
        """Number of vertices of the pattern."""
        return self.k + 1 if self.kind == "star" else self.k

    @staticmethod
    def parse(text: str) -> "PatternGraph":
        """Parse the CLI pattern syntax: C5, P4, K3, S3 (= K_{1,3})."""
        t = text.strip().upper().replace("K1,", "S")
        if len(t) < 2 or t[0] not in "CPKS" or not t[1:].isdigit():
            raise PreconditionError(f"cannot parse pattern {text!r}")
        k = int(t[1:])
        return {
            "C": PatternGraph.cycle,
            "P": PatternGraph.path,
            "K": PatternGraph.complete,
            "S": PatternGraph.star,
        }[t[0]](k)

    def label(self) -> str:
        return {"path": "P", "cycle": "C", "star": "S", "complete": "K"}.get(
            self.kind, "G"
        ) + str(self.k)


@dataclass(frozen=True)
class TwoColoring:
    """Red/blue edge-coloring of K_n as a bitmask over the C(n,2) pairs.

    Bit pair_index(i, j, n) of red_mask is 1 when (i, j) is red; blue is the
    complement, so the two color classes partition E(K_n) by construction.
    """

    n: int
    red_mask: int

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise PreconditionError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        nbits = comb(self.n, 2)
        if self.red_mask < 0 or self.red_mask >> nbits:
            raise PreconditionError(f"red mask has bits beyond C({self.n},2)")

    @property
    def num_pairs(self) -> int:
        return comb(self.n, 2)

    def is_red(self, i: int, j: int) -> bool:
        return bool(self.red_mask >> pair_index(i, j, self.n) & 1)

    def red_graph(self) -> SimpleGraph:
        return self._graph_of(self.red_mask)

    def blue_graph(self) -> SimpleGraph:
        return self._graph_of(((1 << self.num_pairs) - 1) ^ self.red_mask)

    def _graph_of(self, mask: int) -> SimpleGraph:
        rows = [0] * self.n
        idx = 0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if mask >> idx & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                idx += 1
        return SimpleGraph(self.n, tuple(rows))

    def swapped(self) -> "TwoColoring":
        """The coloring with red and blue exchanged."""
        return TwoColoring(self.n, ((1 << self.num_pairs) - 1) ^ self.red_mask)

    def permuted(self, perm: list[int]) -> "TwoColoring":
        """Relabel vertices: pair (i, j) of the result gets the color of
        (perm[i], perm[j])."""
        mask = 0
        for i, j in pair_iter(self.n):
            if self.is_red(perm[i], perm[j]):
                mask |= 1 << pair_index(i, j, self.n)
        return TwoColoring(self.n, mask)


# ---------------------------------------------------------------------------
# Copy counting
# ---------------------------------------------------------------------------


def count_copies(g: SimpleGraph, h: PatternGraph) -> int:
    """Exact number of subgraphs of g isomorphic to h.

    Paths and cycles are counted by the walk DP of count_walks (each is
    walked once per direction), stars in closed form, cliques and explicit
    patterns by backtracking. A pattern larger than the host gives zero.
    """
    if h.order > g.n:
        return 0
    if h.kind == "cycle":
        return _count_cycles_backtrack(g, h.k)
    if h.kind == "path":
        walks, _ = count_walks(g.adj, [(1 << g.n) - 1] * h.k)
        assert walks % 2 == 0
        return walks // 2
    if h.kind == "star":
        if h.k == 1:
            return g.num_edges()
        return sum(comb(g.degree(v), h.k) for v in range(g.n))
    if h.kind == "complete":
        return _count_cliques(g, h.k)
    # explicit
    emb = _count_embeddings(g, h.graph)
    aut = _count_embeddings(h.graph, h.graph)
    assert emb % aut == 0
    return emb // aut


def mono_counts(c: TwoColoring, h: PatternGraph) -> tuple[int, int]:
    """(red copies, blue copies) of the pattern in the coloring."""
    return count_copies(c.red_graph(), h), count_copies(c.blue_graph(), h)


def count_walks(
    adj: tuple[int, ...], steps: list[int], close: Optional[int] = None,
    budget: Optional[int] = None,
) -> tuple[int, Optional[int]]:
    """Walks v0 v1 ... vL of distinct vertices, L = len(steps) - 1 >= 1,
    with each vi in the mask steps[i] and adjacent to v(i-1), and vL
    adjacent to close when close is given; returns (walks, budget left).

    Layered DP: layer i maps mask << 6 | end (mask over v0..vi; end = vi
    < MAX_VERTICES = 64) to its number of walks v0..vi, so the cost is one
    step per distinct state. Layer L is never built: its walks are counted
    off layer L-1.

    Budget: one node per prefix v0..vi, 0 <= i <= L, before the close test,
    which is what a depth-first search over the same walks visits. A
    layer's node count is its summed ways, and BudgetExceededError is
    raised exactly when the total passes budget (None means no cap).
    Lookahead: before building layer d, the node counts of layers d to d+2
    are added up from layer d-1 without allocating, and checked against the
    budget left, so a count that will run out stops before it builds its
    largest frontier.
    """
    last = len(steps) - 1
    frontier = {(1 << v) << 6 | v: 1 for v in _bits(steps[0])}
    left = None if budget is None else budget - len(frontier)  # layer 0
    for d in range(1, last + 1):
        allowed = steps[d]
        if left is not None:
            ahead, layer = _nodes_ahead(adj, frontier, steps[d : d + 3])
            if ahead > left:
                raise BudgetExceededError("walk node budget exhausted")
            left -= layer
        if d == last:
            break
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, ways in frontier.items():
            mask = key >> 6
            cand = adj[key & 63] & allowed & ~mask
            while cand:
                low = cand & -cand
                cand ^= low
                nk = (mask | low) << 6 | (low.bit_length() - 1)
                nxt[nk] = get(nk, 0) + ways
        frontier = nxt
        if not frontier:
            return 0, left
    if close is not None:
        allowed &= adj[close]
    walks = 0
    for key, ways in frontier.items():
        walks += ways * (adj[key & 63] & allowed & ~(key >> 6)).bit_count()
    return walks, left


def _nodes_ahead(
    adj: tuple[int, ...], frontier: dict[int, int], steps: list[int]
) -> tuple[int, int]:
    """(node count of the next len(steps) <= 3 layers, that of the first).

    From a state (mask, end) the walks go on end-w-x-y, all outside mask,
    with w in cand = N(end) & steps[0], x in N(w) & steps[1] and y in
    N(x) & steps[2], y != w. The third layer is summed per x: |N(x) & cand|
    choices of w times |N(x) & steps[2]| choices of y, less the pairs with
    y = w.
    """
    s1, s2, s3 = (steps + [0, 0])[:3]  # a layer past the last one is empty
    one = two = three = 0
    for key, ways in frontier.items():
        mask = key >> 6
        cand = adj[key & 63] & s1 & ~mask
        if not cand:
            continue
        one += ways * cand.bit_count()
        if not s2:
            continue
        avail2 = s2 & ~mask
        n2 = reach = 0
        rest = cand
        while rest:
            low = rest & -rest
            row = adj[low.bit_length() - 1]
            n2 += (row & avail2).bit_count()
            reach |= row
            rest ^= low
        two += ways * n2
        if s3:
            avail3 = s3 & ~mask
            n3 = 0
            rest = reach & avail2
            while rest:
                low = rest & -rest
                row = adj[low.bit_length() - 1]
                wc = row & cand
                n3 += wc.bit_count() * (row & avail3).bit_count() - (wc & avail3).bit_count()
                rest ^= low
            three += ways * n3
    return one + two + three, one


def _count_cycles_backtrack(g: SimpleGraph, k: int, budget: Optional[int] = None) -> int:
    """Number of k-cycles in g, or BudgetExceededError past a node budget.

    For each least vertex a, count_walks counts the paths v1 ... v(k-1)
    above a with v1 and v(k-1) adjacent to a; each cycle is walked twice,
    once per direction. The budget is counted in nodes of the anchored DFS
    over paths (a, v1, ..., vd), 1 <= d <= k-1, every vi > a: one node per
    such path, summed over the anchors, which is count_walks' node rule. The
    count raises exactly when that DFS would visit more than budget nodes
    (None means no cap). The name is that of the depth-first counter the
    DP replaced, kept because the benchmark's tracer wraps the function by
    name; that counter is now the reference in tests/helpers.py.
    """
    adj = g.adj
    left = budget
    total = 0
    for a in range(g.n):
        above = -1 << (a + 1)
        start = adj[a] & above
        if start:
            walks, left = count_walks(adj, [start] + [above] * (k - 2), a, left)
            total += walks
    assert total % 2 == 0
    return total // 2


def _count_cliques(g: SimpleGraph, k: int) -> int:
    if k == 0:
        return 1
    if k == 1:
        return g.n
    adj = g.adj

    def rec(cand: int, need: int) -> int:
        if need == 0:
            return 1
        if cand.bit_count() < need:
            return 0
        total = 0
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            total += rec(m & adj[v], need - 1)
        return total

    return rec((1 << g.n) - 1, k)


def _count_embeddings(host: SimpleGraph, pat: SimpleGraph) -> int:
    """Injective maps pattern -> host carrying edges to edges."""
    if pat.n == 0:
        return 1
    # order pattern vertices so each (after the first) touches a previous one
    order: list[int] = []
    placed = 0
    remaining = set(range(pat.n))
    while remaining:
        best = max(
            remaining,
            key=lambda v: ((pat.adj[v] & placed).bit_count(), pat.degree(v)),
        )
        order.append(best)
        placed |= 1 << best
        remaining.remove(best)
    back_nbrs = []
    for idx, v in enumerate(order):
        back_nbrs.append([order.index(u) for u in _bits(pat.adj[v]) if order.index(u) < idx])
    image = [0] * pat.n

    def rec(idx: int, used: int) -> int:
        if idx == pat.n:
            return 1
        cand = ~used & ((1 << host.n) - 1)
        for j in back_nbrs[idx]:
            cand &= host.adj[image[j]]
        found = 0
        for w in _bits(cand):
            image[idx] = w
            found += rec(idx + 1, used | (1 << w))
        return found

    return rec(0, 0)


# ---------------------------------------------------------------------------
# Cycle spectrum
# ---------------------------------------------------------------------------


def cycle_spectrum(g: SimpleGraph, max_len: int) -> dict[int, tuple[int, ...]]:
    """Lengths t in [3, max_len] with a t-cycle in g, each with one witness.

    Bipartite hosts skip the odd lengths outright; otherwise an anchored DFS
    with distance pruning looks for one cycle of each exact length.
    """
    if max_len > g.n:
        raise PreconditionError(f"max_len {max_len} exceeds host order {g.n}")
    odd_possible = g.bipartition() is None
    out: dict[int, tuple[int, ...]] = {}
    for t in range(3, max_len + 1):
        if t % 2 == 1 and not odd_possible:
            continue
        w = _find_cycle_of_length(g, t)
        if w is not None:
            out[t] = w
    return out


def _find_cycle_of_length(g: SimpleGraph, t: int) -> Optional[tuple[int, ...]]:
    adj = g.adj

    def bfs_dist(src: int, allowed: int) -> list[int]:
        dist = [-1] * g.n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for u in _bits(adj[v] & allowed):
                    if dist[u] == -1:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    for a in range(g.n):
        allowed = -1 << a & ((1 << g.n) - 1)
        dist = bfs_dist(a, allowed)
        path = [a]

        def dfs(v: int, used: int, depth: int) -> Optional[tuple[int, ...]]:
            if depth == t - 1:
                return tuple(path) if adj[v] >> a & 1 else None
            for w in _bits(adj[v] & allowed & ~used):
                if dist[w] == -1 or dist[w] > t - 1 - depth:
                    continue
                path.append(w)
                got = dfs(w, used | (1 << w), depth + 1)
                if got is not None:
                    return got
                path.pop()
        for v in _bits(adj[a] & allowed):
            path.append(v)
            got = dfs(v, (1 << a) | (1 << v), 1)
            if got is not None:
                return got
            path.pop()
    return None


# ---------------------------------------------------------------------------
# kcol text format
# ---------------------------------------------------------------------------


def encode(c: TwoColoring) -> str:
    """Serialize to kcol: line 1 decimal n, line 2 big-endian hex red mask.

    The hex string has exactly ceil(C(n,2)/4) digits; pair (i, j), i < j,
    in row-major order occupies bit pair_index(i, j, n), bit 0 least
    significant. Round-trips bit-exactly through decode().
    """
    width = (c.num_pairs + 3) // 4
    return f"{c.n}\n{c.red_mask:0{width}x}\n"


def decode(text: str) -> TwoColoring:
    """Parse kcol text; KcolParseError names the byte offset on bad input."""
    data = text.encode() if isinstance(text, str) else bytes(text)
    nl = data.find(b"\n")
    if nl == -1:
        raise KcolParseError("missing newline after vertex-count header", len(data))
    header = data[:nl]
    if not header or not header.isdigit():
        bad = 0
        for k, byte in enumerate(header):
            if not (48 <= byte <= 57):
                bad = k
                break
        raise KcolParseError("header is not a decimal vertex count", bad)
    n = int(header)
    if n > MAX_VERTICES:
        raise KcolParseError(f"vertex count {n} exceeds cap {MAX_VERTICES}", 0)
    nbits = comb(n, 2)
    width = (nbits + 3) // 4
    body_start = nl + 1
    body_end = data.find(b"\n", body_start)
    if body_end == -1:
        body_end = len(data)
        tail = b""
    else:
        tail = data[body_end + 1 :]
    body = data[body_start:body_end]
    for k, byte in enumerate(body):
        if byte not in b"0123456789abcdefABCDEF":
            raise KcolParseError("non-hex character in mask", body_start + k)
    if len(body) != width:
        raise KcolParseError(
            f"mask has {len(body)} hex digits, expected {width}", body_start + len(body)
        )
    mask = int(body, 16) if width else 0
    if mask >> nbits:
        raise KcolParseError("mask has bits beyond C(n,2)", body_start)
    if tail.strip():
        raise KcolParseError("trailing bytes after mask", body_end + 1)
    return TwoColoring(n, mask)
