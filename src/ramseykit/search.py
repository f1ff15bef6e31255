"""Exact Ramsey multiplicity by pruned exhaustive search over 2-colorings.

The search walks edge assignments of K_n in colex order, so the first
C(v,2) decisions form a complete coloring of K_v and every copy of the
pattern becomes fully decided the moment its last colex edge is assigned.
Branches are cut when the decided monochromatic copies already reach the
incumbent, and when the partial assignment is provably not the lex-minimal
member of its orbit under a precomputed set of vertex permutations (the
transpositions and the double transpositions of adjacent vertices; any
subset of S_n is sound because the global lex-min representative of an
orbit survives every such constraint).

Red is assigned before blue and the first edge is forced red: swapping the
two colors preserves the total monochromatic count, so only the all-blue
coloring is lost, and its color swap is explored.

Copy check. Each copy is a bitmask over the C(n,2) colex edges, bucketed
by its last edge. When edge d gets colour b, only the copies in bucket d
can become decided, and only in colour b: a copy is monochromatic exactly
when none of its edges has the other colour, so one AND against the other
colour's edge set decides it. The table holds one contiguous column per
64-edge word, word w in the narrowest unsigned dtype that holds its
min(64, C(n,2) - 64w) edges: one column of uint8 to uint32 up to n = 8,
one uint64 column up to n = 11, then uint64 and uint8 at n = 12
(C(12,2) = 66) and uint64 and uint16 at n = 13, 10 bytes a row where two
uint64 words would take 16. Bucket d keeps only words 0..d // 64. A
bucket of at least VECTOR_MIN_MASKS masks is a slice of each of those
columns, ANDed by numpy into a scratch array and counted with
count_nonzero; a smaller one is a list of Python ints scanned with an
early break once the incumbent is reached. The scratch is one pair of
arrays sized to the largest bucket, hit in column 0's dtype and spare
wide enough for the later columns, and each bucket holds views of it cut
to its own length, so the check allocates nothing (a pair per bucket
would add 6.2 MB on C7@13); the other colour's words go into reused 0-d
arrays, one per column in its dtype. Timed alone on C7@13's largest
bucket, 55,440 two-word masks, the check fell from about 290 us to 67
us, and it takes the same 66 us whether the second column is uint16 or
uint64. The numpy check costs about 0.9 us per node up to 128
masks, the Python scan about 0.03 us per mask: timed per bucket on P6@8
they break even near 30 masks, and whole searches of C5@9, P5@7 and
P6@8 ran within 3% of each other at every crossover from 24 to 96 masks
(2 cores, Python 3.11, numpy 2.4), hence 32. Both kernels prune the same
nodes, so node and prune counts do not depend on the crossover.

Canonicity check. A vertex permutation sigma prunes a node when it maps
the assigned prefix to a lex-smaller one: comparing x[e] with x[sigma(e)]
over its moved edges e in ascending order, the first difference has
x[sigma(e)] < x[e]. Only the leading run of pairs with both edges
assigned can be read. Any set of permutations is sound, since the lex-min
member of an orbit survives every such constraint. The search checks two
families of involutions, for which a mirror pair (e, sigma(e)),
sigma(e) < e, compares equal whenever it is reached and is skipped:

- the C(n,2) transpositions (u v). Assigning edge d adds to a run exactly
  one comparison, x[e] against x[d] itself, for an e < d;
- the C(n-2,2) double transpositions of adjacent vertices,
  (a a+1)(c c+1) with a + 1 < c. Edge d adds x[e] against x[d] as above
  and, in one row per double, a second pair (e2, f) with both edges below
  d (see _canonicity_rows).

The search carries one int mask of the sigmas of both families still
tied with the identity. A row groups its sigmas by the edge e they compare
with edge d, and one walk of the row decides both children of a node: e
blue resolves the group in the red child, where a tied sigma prunes, and
e red resolves it in the blue child, where the group leaves the mask for
the whole subtree. A double still tied in a child then compares its
second pair: e2 blue and f red prunes, in either child, and e2 red leaves
the mask. A row with no tied sigma is skipped with one AND. This prunes
exactly the nodes that rescanning every sigma from its first moved edge
prunes (K3@9 with transpositions alone, 2 cores, Python 3.11: 0.4 s,
against 2.5 s with the full rescan).

Why adjacent doubles: at n = 13 they add 55 sigmas to the 78
transpositions and, grouped by e, 55 loop steps to 858. They cut K3@9
from 538,211 nodes to 237,229, P6@8 from 59,215 to 29,395 and the C7@13
zero search from 23,261 to 16,291, for about a tenth more time per node
on a 100,000-node C7@13 dive (2 vCPUs, Python 3.11). Doubles of any
equal gap (250 sigmas at n = 13) cut K3@9 further but made the C7@13
zero search 1.28x slower, and all 2,145 double transpositions about 5x.

Search loop. One loop walks the tree, with no Python recursion, so the
depth C(n,2) has no interpreter limit. The state below edge d is the
copies decided, the tied mask and the blue edge set (red is the rest of
the edges below d). The first visit of edge d below a state decides the
symmetry of both children, and keeps the blue child's verdict, its tied
mask and whether it is pruned, for the blue visit. Every node is tested
for symmetry before the bound, so the copy check runs only on the nodes
that symmetry keeps: on the dense benchmark boards it prunes a quarter to
a third of the nodes. Either order prunes the same nodes, so only the
split between bound and symmetry prunes depends on it. The blue child's
copy check waits for its visit, so a stop in the red subtree never pays
for it. Descending saves the state per depth with the branch taken and
the blue verdict, so backtracking restores it with nothing to undo.

Last vertex. Once edge F - 1 = C(n-1,2) - 1 is decided, only the n - 1
star edges of vertex n - 1 are left, and branching on them one at a time
was 76% of K3@9's 237,229 nodes. A board whose star has at most
STAR_MAX_EDGES edges and at most STAR_MAX_COPIES copies through vertex
n - 1 scores it instead: a node at edge F - 1 that passes its bound is a
frontier, queued rather than descended from, and queued frontiers are
scored in numpy batches (_Engine._score). Under star colouring s, bit i
blue for edge F + i, a copy through n - 1 is red when its edges below F
are red and its star edges lie in ~s, and blue when they are blue and its
star edges lie in s. So one AND per copy and frontier, a sum per star
pattern and one sum over subsets, n - 1 steps over the 2^(n-1)
colourings, count every completion of every frontier, in int16 (at most
twice STAR_MAX_COPIES); the least count and its first colouring are the
frontier's best completion. The star is scored with no symmetry test,
which stays exact: the lex-min member of an optimal colouring's orbit
passes every test at every prefix, and its decided copies stay below any
incumbent above the optimum, so the frontier it passes through is
visited and scores it with every other completion, each a real
colouring. A frontier counts as one node and its colourings as none; one
whose best completion goes below the incumbent counts as a leaf, like an
improving leaf of the plain search.

The result is as if each frontier were scored at its visit. Each queued
frontier keeps what going on from its visit needs: the counters, the
state below its edge and the frames above it. A flush, when the batch is
full, at a stop or at the end of the tree, finds the first frontier that
goes below the incumbent, if any; the search then restores that
frontier's state, takes its completion as the incumbent, drops the later
frontiers and goes on from there, as it would have without the queue
(K3@9 improves 3 times in 9,139 frontiers). So node counts, budget stops,
resume tokens and serial legs adding up to one run do not depend on the
batch size, which doubles from one frontier to STAR_BATCH_CELLS cells
(frontiers times the wider of the star copies and colourings: about 1 MB
of temporaries) and starts again at one after an improvement. A job whose
prefix forces star edges, from a token of a run that branched on the
star, branches on it as well. K3@9 falls to 56,229 nodes, K3@10 from
16,009,499 to 1,726,705.

Why these bounds: whole searches with the star scored, against branched
on (minimum of 5 runs, 2 vCPUs, Python 3.11, numpy 2.4), took 0.25-0.34
of the time on K3@9 (28 star copies), 0.32 on P4@8 (420), 0.45-0.91 on
P5@7 (900), 0.97-1.02 on C5@9 (840), 0.71-0.75 on C6@8 (1,260), 0.95 on
C5@10 (1,512), 0.41 on P5@8 (2,100), 1.21 on C5@11 (2,520), 0.50 on C6@9
(3,360) and 1.08-1.15 on P6@8 (7,560): the copies that a cycle leaves to
its last vertex prune little, so a board's gain is not its copy count
alone, and 2,000 stays below the first loss. Per sampled frontier, the
search below it against its share of a batch took 24 against 1.7 us on
K3@9 (8 star edges), 18 against 3.4 on K3@10, 43 against 5.2 on K3@11, 53
against 16 on K3@12 and 69 against 42 on K3@13; with 11 edges P3@12 and
C4@12 still gained and S3@12 lost a fifth, and with 12 P3@13 scored each
frontier in 33 us against about 5 nodes below it. Hence 11 edges, which
also keeps the edges below F in one word. Batches of 2^14 to 2^18 cells
ran K3@9 and C6@8 within 5% of each other.

Seeding. The incumbent starts from the fewest monochromatic copies among
all blue (a = 0) and chi(a, n - a), a <= n/2; ties go to the earlier
candidate. A sorted k'-subset meets the clique {0..a-1} of chi(a, n - a)
in its first t vertices, so the count is sum_t C(a,t) C(n-a,k'-t) mono_t,
where mono_t counts the template copies (below) monochromatic under the
split of 0..k'-1 at t. One path, _board, takes each board from seed to
engine: a board that a seed colours with no monochromatic copy builds no
masks, so no table it would not build refuses it (S40 on K_45 would need
746 MiB; chi(22, 23) settles it).

Copy enumeration. The distinct copies of the pattern on vertices 0..k'-1
form a template of local edge lists, built once per pattern, and a copy
in K_n is a template mapped through a k'-subset. Different subsets give
different copies, so no global deduplication is needed (isolated vertices
of an explicit pattern are dropped first, since they would make subsets
repeat copies; multiplicity multiplies its count back by the ways to
place them, so its value counts subgraphs, as graphs.count_copies does).
The rows come sorted by last edge, so the buckets are slices of the
columns; the order inside a bucket is left open, since the copy check
counts a bucket and the star table sums it. The subsets are unranked in
colex order, at most _CHUNK_ROWS = 8,192 at a time. For each chunk and
word, pair word (p, s) is the bit of local pair p's edge on subset s, 0
for an edge of another word, and a copy's word is the OR-reduce of its
template's pair words, 8,192 copies at a time. The templates are grouped
by last local pair (a, b), and the subsets that map it to edge (x, y)
number C(x,a) C(y-x-1,b-a-1) C(n-1-y,k'-1-b), so every group's share of
every bucket is known before a copy is built: the subsets of a chunk take
their bucket's next rows in turn, and the group's i-th template on
subset s lands i rows past the subset's base. A copy that ends below
edge 64w has no edge in word w, so the rows before bucket 64w are zeroed
in column w. Colex order walks the subsets by top vertex, so a chunk ends
where the next top needs one more word and builds no word above its last
top. Beyond the table, the build holds one chunk's pair words (at most
16,384), one 8,192-copy gather of them with its rows, and a few tables of
C(k',2) or C(n,2) entries. C7@13's 617,760 copies (5.9 MiB) build in
6.8-7.3 ms with a tracemalloc peak 0.80 MiB above the table, against
16.1-18 ms and 0.70 MiB when each copy was written to a row ranked per
chunk; P8@11 in 27.5-30 ms against 52-58 ms (0.95 MiB, against 0.91),
and C4@40, 13 words, in 30 ms against 45-48 ms (0.82 MiB, against 3.04;
least of 9 runs of scripts/board_build.py, 2 vCPUs, Python 3.11, numpy
2.4). A board
whose table, C(n,k') times the template's copies times the bytes of a row
(_row_bytes), exceeds graphs.MAX_COPY_BYTES (256 MiB, the byte cap of
every exact kernel, the walk DP's included) is refused before the table
is built; the seeding has built the template by then. So is a pattern
whose template build would exceed it: its int16 vertex orders and their
end pairs (P10 needs 132 MiB, P11 1,599 MiB).

Jobs, budgets and resume tokens. A job runs the engine below a forced
prefix of edge colours against the incumbent with a node cap; stopped by
its cap or the deadline, it returns its untried subtrees as prefixes in
DFS order. A job charges no prefix node but the last, which the run that
left the prefix never visited, so serial legs add up to one run's nodes
and every resume makes progress. A command that searches several boards
(ramsey_number, threshold_multiplicity) draws them from one budget: each
board gets the nodes and seconds the earlier ones left. A search drains a
job list that starts as [[]]: serially each job gets all the budget left,
so the root job is the plain DFS; with threads > 1 a fork pool runs rounds
of every queued job with JOB_SLICE nodes and the round-start incumbent,
merged in job order, so node counts repeat. A stop writes what is left as
a one-line token,
ramsey-resume/2;pattern=P5;n=7;witness=<C(n,2) bits>;pending=<prefix>,...
naming the pattern (an explicit one with its edges), n, the incumbent as
colex edge colours and the pending prefixes. Resuming checks each field
against the board and recounts the witness on the board's copy masks: a
stored count may be stale or forged, a recounted coloring bounds the minimum.
A witness that is the board's seed, from a leg that found no leaf, keeps
the cap one above the seed, as the uninterrupted run does until a leaf
ties it (legs of K3@8 summed to 16,031 nodes against 16,689 when the seed
set the cap).
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import asdict, dataclass, field
from math import comb, factorial, inf
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .graphs import (
    MAX_COPY_BYTES, MAX_VERTICES, PatternGraph, TwoColoring, encode, pair_index, require_edge,
)

DEFAULT_NODE_BUDGET = 400_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock caps; hitting either yields a flagged partial report."""

    max_nodes: Optional[int] = DEFAULT_NODE_BUDGET
    max_seconds: Optional[float] = None

    @staticmethod
    def from_env() -> "SearchBudget":
        """The default budget, its node cap read from RAMSEY_BUDGET_NODES when set.

        The variable takes what --budget-nodes takes: an integer of at least 0.
        The `ramsey` command and scripts/small_values.py read it; a library
        call given no budget runs under SearchBudget().
        """
        text = os.environ.get("RAMSEY_BUDGET_NODES")
        if not text:
            return SearchBudget()
        try:
            nodes = int(text)
        except ValueError:
            nodes = -1
        if nodes < 0:
            raise PreconditionError(
                f"RAMSEY_BUDGET_NODES must be an integer of at least 0, got {text!r}"
            )
        return SearchBudget(max_nodes=nodes)

    def after(self, nodes: int, seconds: float) -> "SearchBudget":
        """What is left of this budget once a command's earlier boards spent nodes and seconds."""
        return SearchBudget(
            None if self.max_nodes is None else max(0, self.max_nodes - nodes),
            None if self.max_seconds is None else max(0.0, self.max_seconds - seconds),
        )


@dataclass
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    pruned_bound: int = 0
    pruned_symmetry: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {**asdict(self), "elapsed_seconds": round(self.elapsed_seconds, 6)}

    def add(self, other: "SearchStats") -> None:
        for name in ("nodes", "leaves", "pruned_bound", "pruned_symmetry"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class MultiplicityReport:
    """Result of a multiplicity search at one board size."""

    pattern: PatternGraph
    n: int
    value: int
    witness: TwoColoring
    stats: SearchStats
    exact: bool
    resume_token: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "pattern": self.pattern.label(),
            "n": self.n,
            "value": self.value,
            "exact": self.exact,
            "witness_kcol": encode(self.witness),
            "resume_token": self.resume_token,
            "stats": self.stats.as_dict(),
        }


@dataclass
class RamseyNumberReport:
    pattern: PatternGraph
    value: Optional[int]
    n_max: int
    exact: bool
    witness_below: Optional[TwoColoring]
    per_n: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "pattern": self.pattern.label(),
            "value": self.value,
            "exceeds_n_max": self.value is None,
            "n_max": self.n_max,
            "exact": self.exact,
            "witness_below_kcol": encode(self.witness_below) if self.witness_below else None,
            "per_n": self.per_n,
        }


# ---------------------------------------------------------------------------
# Copy tables in colex edge order
# ---------------------------------------------------------------------------


def _colex_index(i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def _colex_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n) for i in range(j)]


@functools.cache
def _local_copies(h: PatternGraph) -> tuple[int, np.ndarray]:
    """The distinct copies of h on vertices 0..k'-1, one sorted row of local colex edges each.

    k' is the number of non-isolated vertices of h: isolated vertices add
    nothing to a copy's edge set, and dropping them keeps the copies of
    different k'-subsets of K_n distinct. Each kind gives vertex orders and
    its edges between order positions. Rows come in lexicographic order,
    read-only since every caller shares them.
    """
    _require_template(h)
    k = h.order
    if h.kind == "explicit":
        used, ends = np.unique(list(h.graph.edges()), return_inverse=True)
        k, edges = len(used), ends.reshape(-1, 2)
    if h.kind == "complete":
        order, edges = np.arange(k, dtype=np.int16)[None], list(itertools.combinations(range(k), 2))
    elif h.kind == "star":  # each vertex first, as the centre
        order = (np.arange(k, dtype=np.int16)[:, None] + np.arange(k, dtype=np.int16)) % k
        edges = [(0, leaf) for leaf in range(1, k)]
    else:  # every order of 0..k-1, or of 1..k-1 for a cycle
        cycle = int(h.kind == "cycle")
        flat = itertools.chain.from_iterable(itertools.permutations(range(cycle, k)))
        order = np.fromiter(flat, dtype=np.int16).reshape(-1, k - cycle)
        if h.kind != "explicit":
            # order[0] < order[-1] picks one of a path's two directions; a
            # cycle is such a path on 1..k-1, closed through vertex 0
            order = np.pad(order[order[:, 0] < order[:, -1]], ((0, 0), (cycle, 0)))
            edges = [(i, (i + 1) % k) for i in range(k - 1 + cycle)]
    ends = order[:, np.array(edges).T]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    copies = np.sort(hi * (hi - 1) // 2 + lo, axis=1)
    # stars of order 2 and patterns with automorphisms repeat copies here, never across subsets
    copies = copies[np.lexsort(copies.T[::-1])]
    copies = copies[np.r_[True, (copies[1:] != copies[:-1]).any(axis=1)]]
    copies.flags.writeable = False
    return k, copies


def _column_dtypes(n: int) -> list[np.dtype]:
    """The dtypes of a copy table's columns on K_n, one per 64-edge word.

    Word w holds edges 64w.. up to C(n,2) - 1: min(64, C(n,2) - 64w) bits,
    in the narrowest of uint8, uint16, uint32 and uint64 that holds them.
    There is at least one column.
    """
    E = comb(n, 2)
    widths = [min(64, E - 64 * w) for w in range(max(1, -(-E // 64)))]
    return [next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if np.iinfo(t).bits >= bits) for bits in widths]


def _row_bytes(n: int) -> int:
    """The bytes of one row of a copy table on K_n: its columns' item sizes."""
    return sum(dtype.itemsize for dtype in _column_dtypes(n))


@dataclass(frozen=True)
class CopyTable:
    """Copy masks over colex edges, one contiguous column per 64-edge word.

    Row r of column w holds edges 64w.. of copy r, edge e at bit e - 64w, in
    the column's dtype (_column_dtypes). Rows come sorted by last colex edge,
    in no set order inside a bucket, and bucket d, the rows ending at edge
    d, is rows starts[d]:starts[d + 1]. len() is the number of copies.
    """

    columns: tuple
    starts: list

    def __len__(self) -> int:
        return len(self.columns[0])

    def ints(self, lo: int = 0, hi: Optional[int] = None) -> list[int]:
        """Rows lo:hi as Python int masks."""
        words = [column[lo:hi].tolist() for column in self.columns]
        if len(words) == 1:
            return words[0]
        return [sum(x << 64 * w for w, x in enumerate(row)) for row in zip(*words)]


# The copies enumerate_copy_masks builds at a time, and the most subsets it
# unranks at a time: its memory beyond the table it returns is the pair
# words of a chunk, one gather of this many copies' pair words, and a few
# arrays of this many rows.
_CHUNK_ROWS = 1 << 13


def enumerate_copy_masks(h: PatternGraph, n: int) -> CopyTable:
    """Every copy of h inside K_n as a bitmask over colex edge indices.

    Rows come sorted by last colex edge, in no set order inside a bucket.
    A copy is a template mapped through a k'-subset: a subset map is
    increasing, so a copy's last edge is the image of its template's last
    local pair. See Copy enumeration in the module docstring.
    """
    k = h.order
    E = comb(n, 2)
    dtypes = _column_dtypes(n)
    if k > n:
        return CopyTable(tuple(np.zeros(0, dtype) for dtype in dtypes), [0] * (E + 1))
    k, local = _local_copies(h)
    S, pairs = comb(n, k), np.array(_colex_edges(k))
    # the templates grouped by last local pair: group g is templates
    # first[g]:first[g] + size[g], ending at pair last[g]
    local = local[np.argsort(local[:, -1], kind="stable")]
    last, first, size = np.unique(local[:, -1], return_index=True, return_counts=True)
    # held[g, K]: group g's rows in bucket K, its templates times the subsets
    # that map its last pair (a, b) to edge K = (x, y): a vertices below x,
    # b - a - 1 between x and y, k' - 1 - b above y
    pascal = np.array([[comb(i, j) for j in range(k + 1)] for i in range(n + 1)])
    x, y = np.array(_colex_edges(n)).T
    a, b = pairs[last].T[:, :, None]
    held = pascal[x, a] * pascal[y - x - 1, b - a - 1] * pascal[n - 1 - y, k - 1 - b]
    held *= size[:, None]
    ending = held.sum(axis=0)
    starts = np.cumsum(ending) - ending
    # free[g, K]: the next row of bucket K that group g fills
    free = starts + np.cumsum(held, axis=0) - held
    # bits[w][K]: edge K's bit in word w, 0 for an edge of another word
    edge = np.arange(E)
    one = np.uint64(1) << (edge & 63).astype(np.uint64)
    bits = [np.where(edge >> 6 == w, one, 0).astype(dtype) for w, dtype in enumerate(dtypes)]
    # a copy that ends below edge 64w has no edge in word w, and those are
    # the rows before bucket 64w
    out = tuple(np.empty(len(local) * S, dtype) for dtype in dtypes)
    for w, column in enumerate(out):
        column[:starts[64 * w]] = 0
    # the subsets go in colex order, so by top vertex: a chunk ends where a
    # top needs one more word, and builds no word above its last top
    tops = [comb(t, k) for t in range(k, n) if comb(t + 1, 2) - 1 >> 6 != comb(t, 2) - 1 >> 6]
    bounds = [0] + tops + [S]
    # a chunk's pair words, C(k',2) a subset, hold at most 2 * _CHUNK_ROWS
    # (128 KiB as uint64): at four times that, C7@13's 233 KiB of them
    # raised the peak RSS of a process that builds it twice by 0.4 MB
    span = max(1, min(S, _CHUNK_ROWS, 2 * _CHUNK_ROWS // len(pairs)))
    steps = np.arange(size.max())[:, None]
    for lo, hi in zip(bounds, bounds[1:]):
        for s0 in range(lo, hi, span):
            # vertex j - 1 of the subset of colex rank r is the largest t
            # with C(t, j) <= r, less the ranks taken by the vertices above
            rank = np.arange(s0, min(s0 + span, hi))
            sub = np.empty((k, len(rank)), np.int16)
            for j in range(k, 0, -1):
                sub[j - 1] = t = np.searchsorted(pascal[:n, j], rank, side="right") - 1
                rank -= pascal[t, j]
            # keys[p, s]: the colex edge of local pair p in subset s
            keys = sub[pairs[:, 1]] * (sub[pairs[:, 1]] - 1) // 2 + sub[pairs[:, 0]]
            words = (comb(int(sub[-1, -1]) + 1, 2) - 1 >> 6) + 1
            # base[g][s]: the row of group g's first template on subset s, its
            # i-th template i rows on; subsets that share a last edge take
            # the bucket's next free rows in turn
            base = []
            for g, p in enumerate(last):
                key = keys[p].astype(np.intp)
                seen = np.bincount(key, minlength=E)
                order = np.argsort(key, kind="stable")
                turn = np.empty_like(key)
                turn[order] = np.arange(len(key)) - (np.cumsum(seen) - seen)[key[order]]
                base.append(free[g, key] + turn * size[g])
                free[g] += seen * size[g]
            per = max(1, _CHUNK_ROWS // len(key))
            for w in range(words):
                # pair words: local pair p's edge in subset s, as a bit of word w
                word = bits[w][keys.astype(np.intp)]
                for g, c0 in enumerate(first):
                    rows = base[g] + steps[:per]
                    for i in range(0, size[g], per):
                        templates = local[c0 + i:c0 + min(i + per, size[g])]
                        out[w][i:][rows[:len(templates)]] = np.bitwise_or.reduce(
                            word[templates], axis=1)
    return CopyTable(out, starts.tolist() + [len(local) * S])


# Buckets of at least this many masks are counted with numpy, smaller ones
# with a Python loop; see the module docstring for the measurement.
VECTOR_MIN_MASKS = 32
_WORD = (1 << 64) - 1


def _group_by_last(masks: CopyTable, num_edges: int) -> list:
    """The copy table sliced into one bucket per last colex edge.

    Bucket d is a list of Python ints below VECTOR_MIN_MASKS masks, else a
    tuple (hit, spare, words, keys): views cut to this bucket's length of
    one scratch pair sized to the largest such bucket, hit in column 0's
    dtype and spare in the widest later column's; the contiguous slices of
    the columns up to word d // 64; and as many shared 0-d arrays, one per
    column in its dtype, into which the engine writes the other colour's
    words (a ufunc reads one about 0.3 us faster than a Python int, which it
    would convert on every call).
    """
    columns, bounds = masks.columns, masks.starts
    size = max((hi - lo for lo, hi in zip(bounds, bounds[1:])), default=0)
    hit = np.empty(size, columns[0].dtype)
    spare = np.empty(size, max(columns[1:] or columns, key=lambda c: c.itemsize).dtype)
    keys = tuple(np.empty((), column.dtype) for column in columns)
    by_last: list = []
    for d in range(num_edges):
        lo, hi = bounds[d], bounds[d + 1]
        if hi - lo >= VECTOR_MIN_MASKS:
            words = tuple(column[lo:hi] for column in columns[:d // 64 + 1])
            by_last.append((hit[:hi - lo], spare[:hi - lo], words, keys[:len(words)]))
        else:
            by_last.append(masks.ints(lo, hi))
    return by_last


# A board whose last vertex has at most this many star edges and star
# copies scores the star in batches instead of branching on it; a batch
# holds at most STAR_BATCH_CELLS frontiers times the wider of the star
# copies and the star colourings. See Last vertex in the module docstring.
# The scores are int16, so STAR_MAX_COPIES must stay below 2^14.
STAR_MAX_EDGES = 11
STAR_MAX_COPIES = 2000
STAR_BATCH_CELLS = 1 << 16


def _star_table(masks: CopyTable, n: int) -> Optional[tuple]:
    """The copies through vertex n - 1, grouped for scoring its star, or None to branch on it.

    The star is colex edges F = C(n-1,2) to C(n,2) - 1, and a copy goes
    through vertex n - 1 exactly when its last edge is one of them. Returns
    (inner, starts, patterns, width): the copies' edges below F, one uint64
    each (F <= 55), sorted by their star edges as an (n-1)-bit pattern; the
    row where each distinct pattern starts, None when no two copies share
    one (as no two triangles do: summing them per pattern would take a
    quarter of a K3@9 flush); those patterns; and the wider of the copies
    and the 2^(n-1) star colourings.
    """
    k = n - 1
    if not 2 <= k <= STAR_MAX_EDGES:
        return None
    F = comb(k, 2)
    # rows come sorted by last edge, so the star's copies are a suffix
    first = masks.starts[F]
    if not 0 < len(masks) - first <= STAR_MAX_COPIES:
        return None
    copies = sorted(masks.ints(first), key=lambda m: m >> F)
    keys = [m >> F for m in copies]
    starts = [i for i, p in enumerate(keys) if not i or p != keys[i - 1]]
    inner = np.array([m & (1 << F) - 1 for m in copies], dtype=np.uint64)
    patterns = np.array([keys[i] for i in starts])
    starts = None if len(starts) == len(copies) else np.array(starts)
    return inner, starts, patterns, max(len(copies), 1 << k)


def _canonicity_rows(n: int) -> list[tuple]:
    """The canonicity table: per colex edge d, what assigning d adds to each sigma's run.

    Transposition s, the s-th vertex pair (u, v), u < v, in lex order, is
    bit 1 << s of the tied mask; double s, the s-th (a a+1)(c c+1),
    a + 1 < c, in lex order of (a, c), is bit 1 << (C(n,2) + s). A pair
    (e, sigma(e)), e < sigma(e), of a run is readable once every edge up to
    the running maximum of e and sigma(e) over the run is assigned; mirror
    pairs, with sigma(e) < e, are left out, since for an involution they
    compare equal whenever reached. The search reads only the first
    difference of a run, so it needs only each row's new pairs in order.

    The moved edges of (u v) pair up as ({u, w}, {v, w}), and every pair
    before one maps below its image, so edge d = {v, w} adds exactly the
    comparison of x[{u, w}] with x[d]. Those of a double pair up as
    ({u, w}, {u+1, w}) for u in {a, c} and w outside {a, a+1, c, c+1},
    each joining at its own image in the same way, plus the cross pairs
    ({a, c}, {a+1, c+1}) and ({a+1, c}, {a, c+1}). The second comes
    right after the first and maps below it, so edge {a+1, c+1} adds both:
    2n - 7 rows per double, from its O(n) moved edges.

    Row d is (bits, against, extra_bits, extras): the OR of the sigma bits
    it holds; per edge e compared with x[d], (1 << e, ~(the bits of the
    sigmas that compare it)); the OR of the doubles whose cross pairs join
    at d, and for each (its bit, 1 << e2 | 1 << f, 1 << e2) for its second
    pair (e2, f), both edges below d. Grouped by e, the 1,903 first
    comparisons at n = 13 take 913 loop steps. The complement, a negative
    int, keeps each entry as small as its bits: with full-width masks the
    engine of an n = 64 board held 95 MiB instead of 50 MiB (tracemalloc).
    Every entry shares one int 1 << e per edge e, which took the table at
    n = 64 from 49.4 MiB, with an int per entry, to 33 MiB.
    """
    E = comb(n, 2)
    against: list[dict[int, int]] = [{} for _ in range(E)]
    extras: list[list[tuple[int, int, int]]] = [[] for _ in range(E)]
    edge = [1 << e for e in range(E)]

    def compare(e: int, d: int, bit: int) -> None:
        against[d][e] = against[d].get(e, 0) | bit

    for s, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        for w in range(n):
            if w != u and w != v:
                compare(_colex_index(u, w), _colex_index(v, w), 1 << s)
    doubles = [(a, c) for a in range(n - 1) for c in range(a + 2, n - 1)]
    for s, (a, c) in enumerate(doubles, E):
        for w in set(range(n)) - {a, a + 1, c, c + 1}:
            for u in (a, c):
                compare(_colex_index(u, w), _colex_index(u + 1, w), 1 << s)
        d, e2, f = _colex_index(a + 1, c + 1), _colex_index(a + 1, c), _colex_index(a, c + 1)
        compare(_colex_index(a, c), d, 1 << s)
        extras[d].append((1 << s, edge[e2] | edge[f], edge[e2]))
    return [(sum(row.values()), [(edge[e], ~bits) for e, bits in row.items()],
             sum(bit for bit, _, _ in extra), extra) for row, extra in zip(against, extras)]


# ---------------------------------------------------------------------------
# Core DFS engine
# ---------------------------------------------------------------------------


class _Engine:
    """Branch-and-bound over colorings of K_n (0 = red, 1 = blue), built once per board."""

    def __init__(self, masks: CopyTable, n: int):
        self.E = comb(n, 2)
        self.masks = masks  # for recounting a resumed witness
        self.by_last = _group_by_last(masks, self.E)
        self.sigmas = _canonicity_rows(n)
        # every sigma starts tied
        self.tied = (1 << self.E + comb(n - 2, 2)) - 1
        # the star table, and the depth of the frontiers that it scores
        self.star = _star_table(masks, n)
        self.frontier = comb(n - 1, 2) - 1

    def run(self, prefix: list[int], cap: int, cap_bits: Optional[list[int]],
            max_nodes: float, deadline: float = inf):
        """One job: the subtree below a forced prefix, pruned at cap copies.

        Returns (best, bits, stats, pending): the best leaf found below cap,
        else (cap, cap_bits), and the prefixes that a stop left untried.
        """
        E, by_last, sigmas = self.E, self.by_last, self.sigmas
        band, bor, count_nonzero = np.bitwise_and, np.bitwise_or, np.count_nonzero
        forced = len(prefix)
        # the branches per depth: the prefix's colour, red alone at edge 0, else red then blue
        first = prefix + [0] * (E - forced)
        last = (prefix or [0]) + [1] * (E - max(forced, 1))
        # frames[d]: the state below edge d, the branch taken there and the
        # blue child's symmetry verdict, saved on descent
        frames: list = [None] * E
        # the run that left the prefix counted every prefix node but the last
        nodes = min(0, 1 - forced)
        leaves = pruned_bound = pruned_symmetry = 0
        # the node count at which to test the cap next, and the deadline every 4096 nodes
        check = min(4096, max_nodes + 1)
        best, best_blue = cap, None
        stopped = False
        # the deepest edge a node descends from: the last vertex's star is
        # queued and scored in batches, unless the prefix forces star edges
        if self.star is not None and forced <= self.frontier + 1:
            dive, queue, batch = self.frontier, [], 1
            most = max(1, STAR_BATCH_CELLS // self.star[-1])
        else:
            dive, queue = E - 1, None
        depth, b = 0, first[0]
        # the state below edge depth: copies decided, sigmas tied, blue edge set;
        # later: the blue child's (tied, pruned), decided with the red one
        mono, tied, blue, later = 0, self.tied, 0, None
        while True:
            # one pass per batch of frontiers: the node loop breaks on a
            # stop, at the end of the tree or with a full batch
            while True:
                nodes += 1
                if nodes >= check:
                    if nodes > max_nodes or time.monotonic() > deadline:
                        nodes -= 1
                        stopped = True
                        break
                    check = min(nodes + 4096, max_nodes + 1)
                if b == first[depth]:
                    # both children at once: each tied sigma of the row compares
                    # its edge e with this one, and e resolves it in the child
                    # of the other colour, against the prefix on red
                    red_tied = blue_tied = tied
                    red_pruned = blue_pruned = False
                    row_sigmas, against, row_extras, extras = sigmas[depth]
                    if tied & row_sigmas:
                        for e, keep in against:
                            if blue & e:
                                red_tied &= keep
                            else:
                                blue_tied &= keep
                        red_pruned = red_tied != tied
                        # a double still tied compares its second pair (e2, f)
                        # below this edge: a difference resolves it, against the
                        # prefix when e2 is the blue one
                        if (red_tied | blue_tied) & row_extras:
                            for s, pair, e2 in extras:
                                seen = blue & pair
                                if seen and seen != pair:
                                    if red_tied & s:
                                        red_tied ^= s
                                        red_pruned |= seen == e2
                                    if blue_tied & s:
                                        blue_tied ^= s
                                        blue_pruned |= seen == e2
                    if b:
                        child_tied, pruned = blue_tied, blue_pruned
                    else:
                        child_tied, pruned = red_tied, red_pruned
                        later = blue_tied, blue_pruned
                else:
                    child_tied, pruned = later
                if pruned:
                    pruned_symmetry += 1
                else:
                    bit = 1 << depth
                    # a copy ending at this edge is monochromatic in colour b
                    # exactly when none of its edges has the other colour
                    other = blue ^ (bit - 1) if b else blue
                    bucket = by_last[depth]
                    total = mono
                    if type(bucket) is list:
                        for cm in bucket:
                            if not cm & other:
                                total += 1
                                if total >= best:
                                    break
                    else:
                        hit, spare, words, keys = bucket
                        keys[0][...] = other & _WORD
                        band(words[0], keys[0], out=hit)
                        for w in range(1, len(words)):
                            keys[w][...] = other >> 64 * w & _WORD
                            bor(hit, band(words[w], keys[w], out=spare), out=hit)
                        total += len(hit) - int(count_nonzero(hit))
                    if total >= best:
                        pruned_bound += 1
                    elif depth < dive:
                        frames[depth] = (mono, tied, blue, b, later)
                        mono, tied = total, child_tied
                        if b:
                            blue |= bit
                        depth += 1
                        b = first[depth]
                        continue
                    elif queue is None:
                        # a leaf that passes the bound test improves on best
                        leaves += 1
                        best, best_blue = total, blue | b << depth
                    else:
                        # a frontier: its child's copies and blue edges, then
                        # what going on from here needs, should it improve
                        queue.append((total, blue | b << depth, nodes, leaves, pruned_bound,
                                      pruned_symmetry, b, mono, tied, blue, later, frames[:depth]))
                        if len(queue) >= batch:
                            break
                # the next branch: here, else at the deepest ancestor with one left
                while b == last[depth] and depth:
                    depth -= 1
                    mono, tied, blue, b, later = frames[depth]
                if b == last[depth]:
                    break
                b = 1
            if queue:
                found = self._score(queue, best)
                if found is None:
                    batch = min(2 * batch, most)
                else:
                    # the first frontier below best: the search goes on from
                    # its visit with its star completion as the incumbent, as
                    # if it had been scored there, and drops the later ones
                    i, count, star = found
                    (_, child_blue, nodes, leaves, pruned_bound, pruned_symmetry,
                     b, mono, tied, blue, later, frames[:dive]) = queue[i]
                    depth, check, stopped, batch = dive, nodes + 1, False, 1
                    leaves += 1
                    best, best_blue = count, child_blue | star << dive + 1
                queue.clear()
            if stopped:
                break
            # go on from the last node visited, or from the restored frontier
            while b == last[depth] and depth:
                depth -= 1
                mono, tied, blue, b, later = frames[depth]
            if b == last[depth]:
                break
            b = 1
        pending = []
        if stopped:
            # the stopped node's branches from b on, then the blue branch of
            # each ancestor below the prefix on red; a stop comes at a counted
            # node, at or below the prefix's last edge
            x = [blue >> e & 1 for e in range(depth)]
            pending = [x + [c] for c in range(b, last[depth] + 1)]
            pending += [x[:i] + [1] for i in reversed(range(max(forced, 1), depth)) if not x[i]]
        bits = cap_bits if best_blue is None else [best_blue >> e & 1 for e in range(E)]
        stats = SearchStats(max(nodes, 0), leaves, pruned_bound, pruned_symmetry)
        return best, bits, stats, pending

    def _score(self, queue: list, best: int) -> Optional[tuple]:
        """The first queued frontier whose best star colouring goes below best, else None.

        Returns (its index, the copies under that colouring, the colouring
        s: bit i blue for star edge F + i). A copy is red when none of its
        edges below F is blue and its star pattern lies in ~s, blue when
        none is red and its pattern lies in s, so the counts per pattern,
        summed over subsets, give every s. Each table row holds one
        colouring's counts for every frontier, so the sums run over rows.
        """
        inner, starts, patterns, _ = self.star
        k = self.E - self.frontier - 1
        blue = np.array([q[1] for q in queue], dtype=np.uint64)
        # (copy, colour, frontier): whether the copy has no edge of the other colour below F
        mono = inner[:, None, None] & np.stack([blue, ~blue]) == 0
        table = np.zeros((1 << k, 2, len(queue)), dtype=np.int16)
        table[patterns] = mono if starts is None else np.add.reduceat(
            mono, starts, axis=0, dtype=np.int16)
        for i in range(k):
            half = table.reshape(-1, 2, (2 << i) * len(queue))
            half[:, 1] += half[:, 0]
        totals = table[::-1, 0] + table[:, 1]
        least = totals.min(axis=0) + np.array([q[0] for q in queue])
        below = np.flatnonzero(least < best)
        if not len(below):
            return None
        i = int(below[0])
        return i, int(least[i]), int(totals[:, i].argmin())


def _bits_to_coloring(n: int, bits: list[int]) -> TwoColoring:
    mask = sum(1 << pair_index(i, j, n) for (i, j), b in zip(_colex_edges(n), bits) if b == 0)
    return TwoColoring(n, mask)


def _coloring_to_bits(c: TwoColoring) -> list[int]:
    edges = _colex_edges(c.n)
    return [0 if c.is_red(i, j) else 1 for i, j in edges]


def _mono_count(masks: CopyTable, bits: list[int]) -> int:
    """The copies monochromatic under a coloring given by its colex edge colours.

    A copy is monochromatic exactly when it misses one of the colours; every
    copy has an edge, so the count is the copies minus those that touch both.
    """
    red = sum(1 << e for e, b in enumerate(bits) if b == 0)
    blue = red ^ (1 << len(bits)) - 1
    on_red = on_blue = False
    for w, column in enumerate(masks.columns):
        word = column.dtype.type
        on_red = on_red | (column & word(red >> 64 * w & _WORD) != 0)
        on_blue = on_blue | (column & word(blue >> 64 * w & _WORD) != 0)
    return len(masks) - int(np.count_nonzero(on_red & on_blue))


def _seed_counts(h: PatternGraph, n: int) -> list[int]:
    """The copies of h monochromatic under each seed coloring of K_n, n >= h.order.

    The seeds are all blue (a = 0), then chi(a, n - a) for a = 1..n // 2.

    In closed form from the template (see Seeding in the module docstring).
    """
    k, local = _local_copies(h)
    ends = np.array(_colex_edges(k))[np.array(local)]
    mono = []  # per split t: the template copies with no edge or every edge across it
    for t in range(k + 1):
        across = np.count_nonzero((ends[..., 0] < t) & (ends[..., 1] >= t), axis=1)
        mono.append(int(np.count_nonzero((across == 0) | (across == ends.shape[1]))))
    return [sum(comb(a, t) * comb(n - a, k - t) * mono[t] for t in range(k + 1))
            for a in range(n // 2 + 1)]


def _seed_incumbent(h: PatternGraph, n: int) -> tuple[int, TwoColoring]:
    """The first seed coloring with the fewest monochromatic copies, and that count."""
    from .extremal import chi

    counts = _seed_counts(h, n)
    a = counts.index(min(counts))
    return counts[a], chi(a, n - a) if a else TwoColoring(n, 0)


def _copy_rows(h: PatternGraph, n: int) -> int:
    """The rows of enumerate_copy_masks(h, n): C(n, k') times the template's copies."""
    k, local = _local_copies(h)
    return comb(n, k) * len(local) if h.order <= n else 0


def _require_board(h: PatternGraph, n: int) -> None:
    """Refuse a board whose copy table cannot fit."""
    rows = _copy_rows(h, n)
    size = rows * _row_bytes(n)
    if size > MAX_COPY_BYTES:
        raise PreconditionError(
            f"K_{n} holds {rows:,} copies of {h.label()}: a copy table of "
            f"{size / 2**20:,.0f} MiB, more than the {MAX_COPY_BYTES >> 20} MiB a search "
            f"board can hold"
        )


def _require_template(h: PatternGraph) -> None:
    """Refuse a pattern whose template build cannot fit.

    _local_copies holds each vertex order as k' int16 entries, then the
    two int16 ends of each edge of every order it keeps: a path keeps half
    of its k'! orders, a cycle half of the (k'-1)! orders of 1..k'-1.
    """
    k = h.order
    if h.kind == "explicit":
        k = sum(1 for row in h.graph.adj if row)
        width, orders, kept, edges = k, factorial(k), factorial(k), h.graph.num_edges()
    elif h.kind in ("complete", "star"):
        return  # at most k orders
    else:
        width = k - (h.kind == "cycle")
        orders, edges = factorial(width), k - 1 + (h.kind == "cycle")
        kept = orders // 2
    size = 2 * (orders * width + kept * 2 * edges)
    if size > MAX_COPY_BYTES:
        raise PreconditionError(
            f"the copy template of {h.label()} walks {orders:,} vertex orders: "
            f"{size / 2**20:,.0f} MiB with their end pairs, more than the "
            f"{MAX_COPY_BYTES >> 20} MiB a search board can hold"
        )


@functools.lru_cache(maxsize=1)
def _board(h: PatternGraph, n: int) -> tuple:
    """The search board of h on K_n: (seed count, seed coloring, engine or None).

    A board below the pattern's order, or one a seed colours with no
    monochromatic copy, settles with that seed and builds no engine. The last
    board is kept for threshold_multiplicity's second search of n = r(h).
    """
    if not 1 <= n <= MAX_VERTICES:
        raise PreconditionError(f"board size {n} is outside 1..{MAX_VERTICES}")
    require_edge(h)
    if n < h.order:
        return 0, TwoColoring(n, 0), None
    count, seed = _seed_incumbent(h, n)
    if count == 0:
        return 0, seed, None
    _require_board(h, n)
    masks = enumerate_copy_masks(h, n)
    for column in masks.columns:
        column.flags.writeable = False
    return count, seed, _Engine(masks, n)


TOKEN_VERSION = "ramsey-resume/2"
_TOKEN_FIELDS = ["pattern", "n", "witness", "pending"]


def _resume_token(h: PatternGraph, n: int, bits: list[int], jobs: list[list[int]]) -> str:
    witness, *pending = ("".join(map(str, b)) for b in [bits] + jobs)
    fields = [h.label(), n, witness, ",".join(pending)]
    return ";".join([TOKEN_VERSION] + [f"{k}={v}" for k, v in zip(_TOKEN_FIELDS, fields)])


def parse_resume_token(token: str, h: PatternGraph, n: int) -> tuple[list[int], list[list[int]]]:
    """The incumbent witness and the pending prefixes of a resume token for h on K_n.

    A prefix has at most C(n,2) bits and starts with 0: the first edge is always red.
    """
    version, *fields = token.split(";")
    if version != TOKEN_VERSION:
        raise PreconditionError(f"resume token version {version[:24]!r} is not {TOKEN_VERSION!r}")
    if [f.partition("=")[0] for f in fields] != _TOKEN_FIELDS:
        raise PreconditionError(f"resume token fields must be {', '.join(_TOKEN_FIELDS)}")
    pattern, size, witness, pending = (f.partition("=")[2] for f in fields)
    for what, got, want in (("pattern", pattern, h.label()), ("n", size, str(n))):
        if got != want:
            raise PreconditionError(f"resume token is for {what}={got}, not {what}={want}")
    prefixes = pending.split(",")
    for what, text in [("witness", witness)] + [("prefix", p) for p in prefixes]:
        if set(text) - {"0", "1"}:
            raise PreconditionError(
                f"resume token {what} {text!r} holds characters other than 0 and 1"
            )
    edges = comb(n, 2)
    if len(witness) != edges:
        raise PreconditionError(
            f"resume token witness has {len(witness)} bits, but K_{n} has {edges} edges"
        )
    for text in prefixes:
        if len(text) > edges:
            raise PreconditionError(
                f"resume token prefix has {len(text)} bits, more than the {edges} edges of K_{n}"
            )
        if text.startswith("1"):
            raise PreconditionError(
                "resume token prefix must start with 0: the first edge is always red"
            )
    return [int(c) for c in witness], [[int(c) for c in p] for p in prefixes]


def _drain(engine, jobs, best, bits, budget, map_jobs=None, job_nodes=None, workers=1):
    """Drain a job list: serially, one job per round with all the budget left.

    The pool drain maps job_nodes-node jobs in rounds: every queued job with
    no node cap, else as many as the budget left pays for, and when that is
    fewer than the workers, the budget left split over a round of workers.
    """
    map_jobs = map_jobs or (lambda args: [engine.run(*a) for a in args])
    t0 = time.monotonic()
    deadline = inf if budget.max_seconds is None else t0 + budget.max_seconds
    max_nodes = inf if budget.max_nodes is None else budget.max_nodes
    stats = SearchStats()
    while jobs and (left := max_nodes - stats.nodes) >= 1 and time.monotonic() <= deadline:
        if job_nodes is None:
            size, cap = 1, left
        elif left == inf:  # inf // job_nodes is nan
            size, cap = len(jobs), job_nodes
        else:
            size = min(len(jobs), max(left // job_nodes, workers), left)
            cap = min(job_nodes, left // size)
        pending = []
        for job_best, job_bits, job_stats, job_pending in map_jobs(
            [(job, best, bits, cap, deadline) for job in jobs[:size]]
        ):
            if job_best < best:
                best, bits = job_best, job_bits
            stats.add(job_stats)
            pending += job_pending
        jobs = pending + jobs[size:]
    stats.elapsed_seconds = time.monotonic() - t0
    return best, bits, stats, jobs


# Nodes per job and round of the pool drain: a constant, so node counts repeat.
JOB_SLICE = 20_000
_worker_engine: Optional[_Engine] = None


def _adopt_engine(engine: _Engine) -> None:
    """Pool initializer: each forked worker, never the parent, holds the engine here."""
    global _worker_engine
    _worker_engine = engine


def _run_job(args):
    return _worker_engine.run(*args)


def _multiplicity_parallel(engine, jobs, best, bits, budget, threads):
    """The pool drain: rounds of JOB_SLICE-node jobs, mapped on a fork pool of `threads`."""
    import multiprocessing as mp

    with mp.get_context("fork").Pool(threads, _adopt_engine, (engine,)) as pool:
        return _drain(engine, jobs, best, bits, budget,
                      lambda args: pool.map(_run_job, args, chunksize=1), JOB_SLICE, threads)


def multiplicity(
    h: PatternGraph,
    n: int,
    budget: Optional[SearchBudget] = None,
    threads: int = 1,
    resume_token: Optional[str] = None,
) -> MultiplicityReport:
    """Exact minimum number of monochromatic copies of h over colorings of K_n.

    Exhaustive up to the symmetry reductions described in the module
    docstring. A board smaller than the pattern trivially has value 0, and
    one that a seed colours with no monochromatic copy reports that seed. On
    budget exhaustion the report is flagged non-exact and carries a resume
    token accepted by a later call; threads > 1 drains with a worker pool.
    """
    budget = budget or SearchBudget()
    seed_val, seed, engine = _board(h, n)
    resume = parse_resume_token(resume_token, h, n) if resume_token else None
    if engine is None:
        return MultiplicityReport(h, n, 0, seed, SearchStats(leaves=1), exact=True)
    # the engine prunes at `best` copies: one above the seed until a leaf
    # sets it, so that a leaf tying the seed is still reached
    best, bits, jobs = seed_val + 1, _coloring_to_bits(seed), [[]]
    if resume is not None:
        witness, jobs = resume
        count = _mono_count(engine.masks, witness)  # recounted, never read from the token
        # a leg that found no leaf hands the seed on, and the cap stays above it
        if count < best and witness != bits:
            best, bits = count, witness
    if threads > 1:
        best, bits, stats, jobs = _multiplicity_parallel(engine, jobs, best, bits, budget, threads)
    else:
        best, bits, stats, jobs = _drain(engine, jobs, best, bits, budget)
    value = min(best, seed_val) * _subgraphs_per_copy(h, n)
    token = _resume_token(h, n, bits, jobs) if jobs else None
    return MultiplicityReport(h, n, value, _bits_to_coloring(n, bits), stats, not jobs, token)


def _subgraphs_per_copy(h: PatternGraph, n: int) -> int:
    """Subgraphs of K_n isomorphic to h that share one copy's edge set.

    The search counts copies as edge sets. An explicit pattern with i
    isolated vertices and k' others places those i vertices on any i of the
    n - k' vertices its edges miss, C(n - k', i) ways, which is how
    count_copies counts it; every other pattern has no isolated vertex.
    """
    if h.kind != "explicit":
        return 1
    isolated = sum(1 for row in h.graph.adj if not row)
    return comb(n - (h.graph.n - isolated), isolated)


def find_zero_coloring(
    h: PatternGraph, n: int, budget: Optional[SearchBudget] = None
) -> tuple[Optional[TwoColoring], SearchStats, bool]:
    """Search for a coloring of K_n with no monochromatic copy of h.

    Returns (witness or None, stats, exhaustive). When exhaustive is False
    the budget ran out before the question was settled.
    """
    budget = budget or SearchBudget()
    _, seed, engine = _board(h, n)
    if engine is None:
        return seed, SearchStats(leaves=1), True
    best, bits, stats, jobs = _drain(engine, [[]], 1, None, budget)
    if best == 0:
        return _bits_to_coloring(n, bits), stats, True
    return None, stats, not jobs


def ramsey_number(
    h: PatternGraph, n_max: int = 12, budget: Optional[SearchBudget] = None
) -> RamseyNumberReport:
    """Smallest n <= n_max forcing a monochromatic copy of h, by search.

    The returned report carries a zero-copy witness for n-1 and per-board
    statistics. A board below the pattern order is trivially zero-free.
    Every board's search draws on the one budget: its nodes and seconds.
    """
    budget = budget or SearchBudget()
    t0, spent = time.monotonic(), 0
    witness_prev: Optional[TwoColoring] = None
    per_n = []
    for n in range(1, n_max + 1):
        w, stats, exhaustive = find_zero_coloring(
            h, n, budget.after(spent, time.monotonic() - t0))
        spent += stats.nodes
        per_n.append(
            {"n": n, "zero_coloring_exists": w is not None, "settled": exhaustive,
             "nodes": stats.nodes}
        )
        if not exhaustive:
            return RamseyNumberReport(h, None, n_max, False, witness_prev, per_n)
        if w is None:
            return RamseyNumberReport(h, n, n_max, True, witness_prev, per_n)
        witness_prev = w
    return RamseyNumberReport(h, None, n_max, True, witness_prev, per_n)


def threshold_multiplicity(
    h: PatternGraph,
    budget: Optional[SearchBudget] = None,
    n_max: int = 12,
    threads: int = 1,
) -> MultiplicityReport:
    """m(h): the multiplicity at the first board where it is positive.

    Raises BudgetExceededError when the zero search of a board stops on the
    budget, and PreconditionError when r(h) exceeds n_max. The zero searches
    and the multiplicity search draw on the one budget.
    """
    budget = budget or SearchBudget()
    t0 = time.monotonic()
    rn = ramsey_number(h, n_max, budget)
    if not rn.exact:
        stop = rn.per_n[-1]
        raise BudgetExceededError(
            f"the zero search of {h.label()} on K_{stop['n']} stopped after {stop['nodes']:,} "
            f"nodes, so r({h.label()}) is not settled"
        )
    if rn.value is None:
        raise PreconditionError(
            f"ramsey number of {h.label()} exceeds n_max={n_max}; raise n_max"
        )
    spent = sum(board["nodes"] for board in rn.per_n)
    return multiplicity(h, rn.value, budget.after(spent, time.monotonic() - t0), threads=threads)
