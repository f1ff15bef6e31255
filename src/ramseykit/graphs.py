"""Bitset graphs, red/blue colorings of K_n, and exact subgraph-copy counting.

Every path and cycle count in the package comes from one numpy walk DP,
count_walks: copies of paths and cycles here, and the transversal paths of
regular.py. A layer is one row per vertex set with a count per end vertex,
and each step is one integer matmul against the adjacency matrix; a cycle
count walks every least-vertex anchor in one pass. Each caller gives it one
allowed vertex mask per step, an optional closing vertex and a byte cap:
a layer that would pass it is refused before it is allocated.
MAX_COPY_BYTES, the cap of every exact kernel, also bounds the search's
copy tables (search.py). The tests check the DP against a naive
enumeration oracle and against the depth-first counters kept in
tests/helpers.py.

A "copy" of a pattern H in a host G is a subgraph of G isomorphic to H,
counted once per subgraph (automorphism-deduplicated): the complete graph
K_k contains exactly (k-1)!/2 copies of the k-cycle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import BudgetExceededError, KcolParseError, PreconditionError

# Single machine word per adjacency row; all desk-scale targets fit.
MAX_VERTICES = 64

# General subgraph counting (kind="explicit") is exponential in the pattern;
# larger patterns are out of scope.
EXPLICIT_PATTERN_CAP = 8

# The most bytes an exact kernel may hold: a search board's copy table
# (search.py; 2^25 rows of one uint64 word, from n = 9 to 11) or a
# walk-DP step (count_walks).
MAX_COPY_BYTES = 256 << 20

# The walk DP steps this many rows at a time, so its temporaries stay a
# fixed size whatever the layer's.
_BLOCK = 512
_INT64_LIMIT = 1 << 63
# Bytes per (set, end) cell of a walk-DP merge: the count, its end, its set
# key, and np.unique's sort order, sorted copy and inverse index
_MERGE_BYTES = 96
_ONE = np.uint64(1)
_BIT = _ONE << np.arange(MAX_VERTICES, dtype=np.uint64)


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

    def colour_classes(self, alive: int) -> list[tuple[int, int, bool]]:
        """The components of G[alive], in order of least vertex.

        Each is (even, odd, proper): the masks of the vertices at even and
        odd BFS depth from the least vertex, and whether no edge joins two
        vertices of one class, which holds exactly when the component is
        bipartite and the classes are then its 2-colouring.
        """
        out = []
        while alive:
            frontier = alive & -alive
            classes = [frontier, 0]
            seen, depth = frontier, 0
            while frontier:
                reach = 0
                for v in _bits(frontier):
                    reach |= self.adj[v]
                frontier = reach & alive & ~seen
                seen |= frontier
                depth ^= 1
                classes[depth] |= frontier
            even, odd = classes
            proper = not any(self.adj[v] & cls for cls in classes for v in _bits(cls))
            out.append((even, odd, proper))
            alive &= ~seen
        return out


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
        """Parse a pattern label: C5, P4, K3, S3 (= K_{1,3}, also K1,3), G5:0-1,1-2,1-3.

        G<n>:<u>-<v>,... is the explicit pattern on vertices 0..n-1 with those
        edges, n at most EXPLICIT_PATTERN_CAP; label() writes it back.
        """
        t = text.strip().upper().replace("K1,", "S")
        if t.startswith("G"):
            return PatternGraph._parse_explicit(text, t)
        match = re.fullmatch(r"([CPKS])(\d{1,9})", t, re.ASCII)
        if match is None:
            raise PreconditionError(f"cannot parse pattern {text!r}")
        return {
            "C": PatternGraph.cycle,
            "P": PatternGraph.path,
            "K": PatternGraph.complete,
            "S": PatternGraph.star,
        }[match[1]](int(match[2]))

    @staticmethod
    def _parse_explicit(text: str, t: str) -> "PatternGraph":
        match = re.fullmatch(r"G(\d{1,9}):((?:\d{1,9}-\d{1,9},)*\d{1,9}-\d{1,9})?", t, re.ASCII)
        if match is None:
            raise PreconditionError(f"cannot parse pattern {text!r}: expected G<n>:<u>-<v>,...")
        n = int(match[1])
        if n > EXPLICIT_PATTERN_CAP:
            raise PreconditionError(
                f"pattern {text!r} has {n} vertices, more than {EXPLICIT_PATTERN_CAP}"
            )
        edges = set()
        for pair in match[2].split(",") if match[2] else ():
            u, v = sorted(map(int, pair.split("-")))
            if v >= n:
                raise PreconditionError(f"pattern {text!r} has vertex {v} outside 0..{n - 1}")
            if u == v:
                raise PreconditionError(f"pattern {text!r} has a self-loop at vertex {u}")
            if (u, v) in edges:
                raise PreconditionError(f"pattern {text!r} repeats edge {u}-{v}")
            edges.add((u, v))
        return PatternGraph.explicit(SimpleGraph.from_edges(n, edges))

    def label(self) -> str:
        """The spelling parse() reads back; an explicit pattern lists its edges."""
        if self.kind == "explicit":
            return f"G{self.k}:" + ",".join(f"{u}-{v}" for u, v in self.graph.edges())
        return {"path": "P", "cycle": "C", "star": "S", "complete": "K"}[self.kind] + str(self.k)


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
    walked once per direction) under MAX_COPY_BYTES; a count that would
    hold more is refused with a PreconditionError naming the pattern and
    the host order. Stars are counted in closed form, cliques and explicit
    patterns by backtracking. A pattern larger than the host gives zero.
    """
    if h.order > g.n:
        return 0
    try:
        if h.kind == "cycle":
            return _count_cycles_backtrack(g, h.k, MAX_COPY_BYTES)
        if h.kind == "path":
            walks = count_walks(g.adj, [(1 << g.n) - 1] * h.k, cap=MAX_COPY_BYTES)
            assert walks % 2 == 0
            return walks // 2
    except BudgetExceededError as err:
        raise PreconditionError(f"cannot count {h.label()} in a {g.n}-vertex host: {err}") from None
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


def require_edge(h: PatternGraph) -> None:
    """Refuse a pattern with no edge: a colouring gives its copies no colour.

    Counted in each colour, K1 would give n and G3: C(n,3), whatever the
    colouring. mono_counts and every search board check it here.
    """
    if h.order < 2 or (h.kind == "explicit" and h.graph.num_edges() == 0):
        raise PreconditionError(
            f"pattern {h.label()} has no edge: monochromatic counts and searches "
            f"need a pattern with at least one edge"
        )


def mono_counts(c: TwoColoring, h: PatternGraph) -> tuple[int, int]:
    """(red copies, blue copies) of the pattern in the coloring."""
    require_edge(h)
    return count_copies(c.red_graph(), h), count_copies(c.blue_graph(), h)


def count_walks(
    adj: tuple[int, ...], steps: list[int], close: Optional[int] = None,
    cap: int = MAX_COPY_BYTES,
) -> int:
    """Walks v0 v1 ... vL of distinct vertices, L = len(steps) - 1 >= 1,
    with each vi in the mask steps[i] and adjacent to v(i-1), and vL
    adjacent to close when close is given.

    Layered DP on numpy arrays. A layer is held as rows: one row per vertex
    set (a uint64 mask), and per row the number of walks over that set
    ending at each vertex (an n-column count matrix). Layer i is one
    integer matmul of layer i-1 against the 0/1 adjacency matrix, masked
    per row to the vertices of steps[i] outside the row's set, then merged
    by vertex set with one sort. Layer L is never built: its walks are
    counted off layer L-1 with array popcounts.

    Memory: before a merge allocates anything, the DP counts the new
    layer's nonzero (set, end) cells and raises BudgetExceededError when
    _layer_bytes of the old layer's rows and those cells passes cap; it
    checks the new rows the same way before it allocates their counts,
    and layer 0 (one cell per row) before it is built.
    Steps go in blocks of _BLOCK rows, so their temporaries stay a fixed
    size, with no BLAS call. Rows of j vertices hold at most (j-1)! walks
    per end, and a step sums at most 64 of those, so counts are int64
    while 2^6 j! < 2^63 (rows of up to 19 vertices) and Python ints past
    it; every total is summed exactly.
    """
    starts = np.fromiter(_bits(steps[0] & ((1 << len(adj)) - 1)), np.int64)
    return _walk_layers(adj, _BIT[starts], starts, steps[1:], False, close, cap)


def _walk_layers(
    adj: tuple[int, ...], sets: np.ndarray, ends: np.ndarray, steps: list[int],
    anchored: bool, close: Optional[int], cap: int,
) -> int:
    """The walk DP of count_walks (see there) from layer 0, whose walks are
    one vertex set sets[r] ending at ends[r] each; steps holds the allowed
    mask of each layer after it. anchored walks (_count_cycles_backtrack's)
    also stay above the least vertex of their set, the anchor, and their
    last vertex must be adjacent to it instead of to close.
    """
    n = len(adj)
    full = (1 << n) - 1
    rows = np.array(adj, np.uint64)
    adj01 = _bit_matrix(rows, n).astype(np.int64)
    _check_layer(len(sets), len(sets), n, False, cap)  # one cell per row
    ways = np.zeros((len(sets), n), np.int64)
    ways[np.arange(len(sets)), ends] = 1
    for d in range(len(steps)):
        if not len(sets):
            return 0
        j = d + 1 + anchored  # vertices in a row of layer d, the anchor included
        top = factorial(j) << 6  # a step from these rows sums up to 64 counts of (j-1)!
        if top >= _INT64_LIMIT and ways.dtype != object:
            ways = ways.astype(object)
        step = np.uint64(steps[d] & full)
        if d == len(steps) - 1:
            return _close_walks(rows, sets, ways, step, anchored, close, top)
        _extend(adj01, sets, ways, step, anchored)
        # wide: the new layer's rows, of j + 1 vertices, will hold Python ints
        cells, wide = np.count_nonzero(ways), top * (j + 1) >= _INT64_LIMIT
        _check_layer(len(sets), cells, n, wide, cap)
        # merge: cell (r, w) of the extended rows is cell w of the row of
        # sets[r] | 1 << w; the old layer goes before the new one is made
        flat = np.flatnonzero(ways)
        vals = ways.reshape(-1)[flat]
        del ways
        ends = (flat % n).astype(np.uint8)
        keys = sets[flat // n]
        del flat
        keys |= _BIT[ends]
        sets, slot = np.unique(keys, return_inverse=True)
        del keys
        _check_layer(len(sets), cells, n, wide, cap)
        slot *= n
        slot += ends
        ways = np.zeros((len(sets), n), vals.dtype)
        ways.reshape(-1)[slot] = vals
    return 0  # no steps: L = 0 is outside count_walks' domain


def _layer_bytes(rows: int, cells: int, n: int, wide: bool) -> int:
    """The most a DP step holds at once: a layer of rows vertex sets, a set
    word and n counts each, and _MERGE_BYTES a cell for cells (set, end)
    cells in the merge. A wide (Python int) count is a pointer next to the
    int64 it was converted from, and each cell's int adds 64 bytes (counts
    stay below 2^300: 63! walks times 64)."""
    if wide:
        return rows * (8 + 16 * n) + cells * (_MERGE_BYTES + 64)
    return rows * (8 + 8 * n) + cells * _MERGE_BYTES


def _check_layer(rows: int, cells: int, n: int, wide: bool, cap: int) -> None:
    """BudgetExceededError when _layer_bytes passes cap."""
    size = _layer_bytes(rows, cells, n, wide)
    if size > cap:
        raise BudgetExceededError(
            f"a walk layer of {cells:,} cells needs {size / 2**20:,.1f} MiB, "
            f"more than the {cap / 2**20:,.1f} MiB cap"
        )


def _free(sets: np.ndarray, anchored: bool) -> np.ndarray:
    """Per row, the vertices a walk over the set may step to: those outside
    it and, for anchored walks, above its least vertex."""
    return ~(sets | (sets - _ONE)) if anchored else ~sets


def _extend(
    adj01: np.ndarray, sets: np.ndarray, ways: np.ndarray, step, anchored: bool,
) -> None:
    """Overwrite ways, block by block, with its step to the next layer: the
    matmul against adj01, masked per row to step and _free."""
    n = len(adj01)
    for lo in range(0, len(sets), _BLOCK):
        w = ways[lo : lo + _BLOCK]
        nxt = w @ adj01
        nxt *= _bit_matrix(step & _free(sets[lo : lo + _BLOCK], anchored), n)
        w[...] = nxt


def _close_walks(
    rows: np.ndarray, sets: np.ndarray, ways: np.ndarray, step, anchored: bool,
    close: Optional[int], top: int,
) -> int:
    """The walks of the last layer, counted off the one before; each of its
    counts times a popcount is at most top."""
    walks = 0
    for lo in range(0, len(sets), _BLOCK):
        blk, w = sets[lo : lo + _BLOCK], ways[lo : lo + _BLOCK]
        avail = step & _free(blk, anchored)
        if anchored:  # close at the anchor, the least vertex of each set
            avail &= rows[np.bitwise_count((blk & ~(blk - _ONE)) - _ONE)]
        elif close is not None:
            avail &= rows[close]
        walks += _total(w * _popcounts(rows, avail), top)
    return walks


def _bit_matrix(masks: np.ndarray, n: int) -> np.ndarray:
    """Bits 0..n-1 of each uint64 mask as a 0/1 uint8 row."""
    raw = np.ascontiguousarray(masks, "<u8").view(np.uint8)
    return np.unpackbits(raw, bitorder="little").reshape(-1, 64)[:, :n]


def _popcounts(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Cell (r, v): |N(v) & masks[r]| as uint8, from the adjacency rows as uint64."""
    return np.bitwise_count(rows & masks[:, None])


def _total(counts: np.ndarray, cap: int) -> int:
    """Exact sum of nonnegative counts, each at most cap."""
    if counts.dtype != object and counts.size * cap >= _INT64_LIMIT:
        if counts.size * int(counts.max(initial=0)) >= _INT64_LIMIT:
            counts = counts.astype(object)
    return int(counts.sum())


def _count_cycles_backtrack(g: SimpleGraph, k: int, cap: int = MAX_COPY_BYTES) -> int:
    """Number of k-cycles in g, or BudgetExceededError when a step of the
    count would hold more than cap bytes (count_walks' rule).

    One _walk_layers pass over all anchors: each cycle is walked as a, v1,
    ..., v(k-1) from its least vertex a, every vi above a and v(k-1)
    adjacent to a, once per direction; layer 0 is one row {a, v1} per edge.
    The name is that of the depth-first counter the DP replaced, kept
    because the benchmark's tracer wraps the function by name; that counter
    is now the reference in tests/helpers.py.
    """
    if k > g.n:
        return 0
    anchors, firsts = np.nonzero(np.triu(_bit_matrix(np.array(g.adj, np.uint64), g.n), 1))
    full = (1 << g.n) - 1
    total = _walk_layers(
        g.adj, _BIT[anchors] | _BIT[firsts], firsts, [full] * (k - 2), True, None, cap
    )
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
    odd_possible = not all(proper for _, _, proper in g.colour_classes((1 << g.n) - 1))
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
