"""Exact Ramsey multiplicity by pruned exhaustive search over 2-colorings.

The search walks edge assignments of K_n in colex order, so the first
C(v,2) decisions form a complete coloring of K_v and every copy of the
pattern becomes fully decided the moment its last colex edge is assigned.
Branches are cut when the decided monochromatic copies already reach the
incumbent, and when the partial assignment is provably not the lex-minimal
member of its orbit under a precomputed set of vertex permutations
(transpositions by default; any subset of S_n is sound because the global
lex-min representative of an orbit survives every such constraint).

Red is assigned before blue and the first edge is forced red: swapping the
two colors preserves the total monochromatic count, so only the all-blue
coloring is lost, and its color swap is explored.

Copy check. Each copy is a bitmask over the C(n,2) colex edges, bucketed
by its last edge. When edge d gets colour b, only the copies in bucket d
can become decided, and only in colour b: a copy is monochromatic exactly
when none of its edges has the other colour, so one AND against the other
colour's edge set decides it. Masks are stored as little-endian uint64
words, one word while C(n,2) <= 64 and two from n = 12 (C(12,2) = 66);
bucket d keeps only words 0..d // 64. A bucket of at least
VECTOR_MIN_MASKS masks is one contiguous uint64 array per word, counted
with a single numpy AND and count_nonzero; a smaller one is a list of
Python ints scanned with an early break once the incumbent is reached.
The numpy call costs about 2.2-3 us whatever the bucket size up to a few
hundred masks, the Python scan about 0.03 us per mask; timing both on
every node of C5@9, P5@7 and P6@8 (2 cores, Python 3.11, numpy 2.4) put
the break-even at 60-110 masks, hence 96. Both kernels prune the same
nodes, so node and prune counts do not depend on the crossover.

Canonicity check. A transposition sigma of two vertices prunes a node when
it maps the assigned prefix to a lex-smaller one: comparing x[e] with
x[sigma(e)] over its moved edges e in ascending order, the first
difference has x[sigma(e)] < x[e]. Only the leading run of pairs with
both edges assigned can be read, and that run depends on the depth alone,
so the table from _transposition_sigmas lists, per colex edge d, the pairs
of each sigma that join its run when edge d is assigned. The DFS carries
an int mask of the sigmas still tied with the identity on their run; at a
node it reads only the new pairs of the tied sigmas. A first difference in
the coloring's favour drops sigma from the child's mask for the whole
subtree, one against it prunes, and an empty mask skips the check. This
prunes exactly the nodes that rescanning every sigma from its first moved
edge prunes, at a fraction of the cost (K3@9 on 2 cores, Python 3.11:
0.9 s, against 4.1 s with the full rescan).

Seeding. The incumbent starts from the fewest monochromatic copies among
all-blue and chi(a, n - a), a <= n/2, counted with numpy against the same
copy masks the search counts, so seed and search agree on what a copy is.
Ties go to the earlier candidate in that order.

Copy enumeration. The distinct copies of the pattern on vertices 0..k-1
form a template of local edge lists; it is mapped through the colex table
of every k-subset of K_n, one template edge column at a time, in small
integer dtypes. Different subsets give different copies, so no global
deduplication is needed (isolated vertices of an explicit pattern are
dropped first, since they would make subsets repeat copies; multiplicity
multiplies its count back by the ways to place them, so its value counts
subgraphs, as graphs.count_copies does).

Jobs, budgets and resume tokens. A job runs the engine below a forced
prefix of edge colours against the incumbent with a node cap; stopped by
its cap or the deadline, it returns its untried subtrees as prefixes in
DFS order. A search drains a job list that starts as [[]]: serially each
job gets all the budget left, so the root job is the plain DFS; with
threads > 1 a fork pool runs rounds of every queued job with JOB_SLICE
nodes and the round-start incumbent, merged in job order, so node counts
repeat. A stop writes what is left as a one-line token,
ramsey-resume/2;pattern=P5;n=7;witness=<C(n,2) bits>;pending=<prefix>,...
naming the pattern (an explicit one with its edges), n, the incumbent as
colex edge colours and the pending prefixes. Resuming checks each field
against the board and recounts the witness on the board's copy masks: a
stored count may be stale or forged, a recounted coloring bounds the minimum.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import asdict, dataclass, field
from math import comb, inf
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .graphs import MAX_VERTICES, PatternGraph, TwoColoring, encode, pair_index

DEFAULT_NODE_BUDGET = 400_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock caps; hitting either yields a flagged partial report."""

    max_nodes: Optional[int] = DEFAULT_NODE_BUDGET
    max_seconds: Optional[float] = None

    @staticmethod
    def from_env() -> "SearchBudget":
        nodes = os.environ.get("RAMSEY_BUDGET_NODES")
        return SearchBudget(max_nodes=int(nodes) if nodes else DEFAULT_NODE_BUDGET)


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


def _local_copies(h: PatternGraph) -> tuple[int, list[tuple[int, ...]]]:
    """The distinct copies of h on vertices 0..k'-1 as local colex edge lists.

    k' is the number of non-isolated vertices of h: isolated vertices add
    nothing to a copy's edge set, and dropping them keeps the copies of
    different k'-subsets of K_n distinct.
    """
    k = h.order
    sub = range(k)
    if h.kind == "complete":
        copies = [itertools.combinations(sub, 2)]
    elif h.kind == "star":
        copies = [[(c, leaf) for leaf in sub if leaf != c] for c in sub]
    elif h.kind == "path":
        # perm[0] < perm[-1] picks one of the two directions
        copies = [zip(p, p[1:]) for p in itertools.permutations(sub) if p[0] < p[-1]]
    elif h.kind == "cycle":
        copies = [
            zip((0,) + p, p + (0,))
            for p in itertools.permutations(range(1, k))
            if p[0] < p[-1]
        ]
    else:  # explicit
        edges = list(h.graph.edges())
        used = sorted({v for e in edges for v in e})
        relabel = {v: i for i, v in enumerate(used)}
        edges = [(relabel[u], relabel[v]) for u, v in edges]
        k = len(used)
        copies = [[(p[u], p[v]) for u, v in edges] for p in itertools.permutations(range(k))]
    # a set over the copies inside K_k only: stars of order 2 and patterns
    # with automorphisms repeat here, never across subsets
    local = {tuple(sorted(_colex_index(u, v) for u, v in c)) for c in copies}
    return k, sorted(local)


def enumerate_copy_masks(h: PatternGraph, n: int) -> np.ndarray:
    """Every copy of h inside K_n as a bitmask over colex edge indices.

    Row r holds copy r in W = ceil(C(n,2) / 64) little-endian uint64 words:
    colex edge e is bit e % 64 of word e // 64. Rows come in no particular
    order. The local copies of h on K_k are mapped through the colex table
    of every k-subset of vertices, one pattern edge at a time.
    """
    k = h.order
    E = comb(n, 2)
    words = max(1, -(-E // 64))
    if k > n:
        return np.zeros((0, words), dtype=np.uint64)
    k, local = _local_copies(h)
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    # colex index of every local pair (a, b), a < b, inside every subset
    table = np.stack(
        [subsets[:, b] * (subsets[:, b] - 1) // 2 + subsets[:, a]
         for b in range(k) for a in range(b)],
        axis=1,
    ).astype(np.uint8 if E <= 256 else np.uint16)
    local = np.array(local, dtype=np.intp)
    out = np.zeros((words, len(subsets), len(local)), dtype=np.uint64)
    one = np.uint64(1)
    for column in local.T:
        edge = table[:, column]
        bit = one << (edge & 63).astype(np.uint64)
        word = edge >> 6
        for w in range(words):
            out[w] |= np.where(word == w, bit, 0)
    return out.reshape(words, -1).T


# bit_length(x) == searchsorted(_LOW_ONES, x) for uint64 x
_LOW_ONES = np.array([(1 << i) - 1 for i in range(65)], dtype=np.uint64)
# Buckets of at least this many masks are counted with numpy, smaller ones
# with a Python loop; see the module docstring for the measurement.
VECTOR_MIN_MASKS = 96
_WORD = (1 << 64) - 1


def _group_by_last(masks: np.ndarray, num_edges: int) -> list:
    """Masks bucketed by their last colex edge.

    Bucket d is a list of Python ints below VECTOR_MIN_MASKS masks, else a
    tuple of contiguous uint64 arrays, one per word up to word d // 64.
    """
    last = np.full(len(masks), -1, dtype=np.int64)
    for w in range(masks.shape[1]):
        col = masks[:, w]
        last = np.where(col != 0, 64 * w + np.searchsorted(_LOW_ONES, col) - 1, last)
    order = np.argsort(last, kind="stable")
    masks, last = masks[order], last[order]
    bounds = np.searchsorted(last, np.arange(num_edges + 1))
    by_last: list = []
    for d in range(num_edges):
        rows = masks[bounds[d]:bounds[d + 1], : d // 64 + 1]
        if len(rows) >= VECTOR_MIN_MASKS:
            by_last.append(tuple(np.ascontiguousarray(rows[:, w]) for w in range(rows.shape[1])))
        else:
            by_last.append([sum(int(x) << 64 * w for w, x in enumerate(r)) for r in rows.tolist()])
    return by_last


def _transposition_sigmas(n: int) -> list[list[tuple[int, tuple[tuple[int, int], ...]]]]:
    """The canonicity table: per colex edge d, the comparisons it decides.

    Transposition s of the vertex pairs (u, v), u < v, in lex order is bit
    1 << s of the tied mask. Its constraint compares x[e] with x[sigma(e)]
    over the moved edges e in ascending order and can read only the leading
    run whose pairs are all assigned. Row d lists (bit, pairs) for every
    sigma whose run gains pairs (e, sigma(e)) once edge d is assigned.
    Pairs with sigma(e) < e are left out: sigma is an involution, so the
    mirror pair comes earlier in the run and has already compared equal.
    """
    rows: list[list] = [[] for _ in range(comb(n, 2))]
    edges = _colex_edges(n)
    for s, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        perm = list(range(n))
        perm[u], perm[v] = v, u
        joins: dict[int, list[tuple[int, int]]] = {}
        reach = -1
        for e, (i, j) in enumerate(edges):
            f = _colex_index(perm[i], perm[j])
            if f != e:
                reach = max(reach, e, f)
                if e < f:
                    joins.setdefault(reach, []).append((e, f))
        for d, pairs in joins.items():
            rows[d].append((1 << s, tuple(pairs)))
    return rows


# ---------------------------------------------------------------------------
# Core DFS engine
# ---------------------------------------------------------------------------


class _Exhausted(Exception):
    """A job stopped before branch args[1] at depth args[0]."""


class _Engine:
    """Branch-and-bound over colorings of K_n (0 = red, 1 = blue), built once per board."""

    def __init__(self, masks: np.ndarray, n: int, use_symmetry: bool = True):
        self.E = comb(n, 2)
        self.by_last = _group_by_last(masks, self.E)
        self.sigmas = _transposition_sigmas(n) if use_symmetry else []
        # all C(n,2) transpositions start tied; without symmetry none is checked
        self.tied = (1 << self.E) - 1 if use_symmetry else 0

    def run(self, prefix: list[int], cap: int, cap_bits: Optional[list[int]],
            max_nodes: float, deadline: float = inf):
        """One job: the subtree below a forced prefix, pruned at cap copies.

        Returns (best, bits, stats, pending): the best leaf found below cap,
        else (cap, cap_bits), and the prefixes that a stop left untried.
        """
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

    def _tied_after(self, depth: int, tied: int) -> int:
        """The tied mask after edge depth is assigned, or -1 to prune.

        Only the comparisons that edge depth adds are read, and only for
        the sigmas still tied: x[sigma(e)] < x[e] at the first difference
        means sigma maps the prefix to a lex-smaller one.
        """
        x = self.x
        for bit, pairs in self.sigmas[depth]:
            if tied & bit:
                for e, f in pairs:
                    if x[e] != x[f]:
                        if x[e]:
                            return -1
                        tied ^= bit
                        break
        return tied

    def _dfs(self, depth: int, decided_mono: int, tied: int) -> None:
        stats = self.stats
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
            # the node is counted before the cap test; the deadline is read every 4096 nodes
            stats.nodes += 1
            if stats.nodes > self.max_nodes or (
                not stats.nodes & 4095 and time.monotonic() > self.deadline
            ):
                stats.nodes -= 1
                raise _Exhausted(depth, b)
            self.x[depth] = b
            bit = 1 << depth
            # a copy ending at this edge is monochromatic in colour b
            # exactly when none of its edges has the other colour
            if b == 0:
                self.red |= bit
                other = self.blue
            else:
                self.blue |= bit
                other = self.red
            bucket = self.by_last[depth]
            total = decided_mono
            if type(bucket) is list:
                for cm in bucket:
                    if not cm & other:
                        total += 1
                        if total >= self.best:
                            break
            else:
                hit = bucket[0] & (other & _WORD)
                for w in range(1, len(bucket)):
                    hit |= bucket[w] & (other >> 64 * w & _WORD)
                total += len(hit) - int(np.count_nonzero(hit))
            if total >= self.best:
                stats.pruned_bound += 1
            elif (child_tied := self._tied_after(depth, tied) if tied else 0) < 0:
                stats.pruned_symmetry += 1
            else:
                self._dfs(depth + 1, total, child_tied)
            if b == 0:
                self.red ^= bit
            else:
                self.blue ^= bit


def _bits_to_coloring(n: int, bits: list[int]) -> TwoColoring:
    mask = sum(1 << pair_index(i, j, n) for (i, j), b in zip(_colex_edges(n), bits) if b == 0)
    return TwoColoring(n, mask)


def _coloring_to_bits(c: TwoColoring) -> list[int]:
    edges = _colex_edges(c.n)
    return [0 if c.is_red(i, j) else 1 for i, j in edges]


def _seed_colorings(n: int) -> list[TwoColoring]:
    """Cheap candidate colorings whose counts seed the incumbent: all blue, then chi(a, n - a)."""
    from .extremal import chi

    return [TwoColoring(n, 0)] + [chi(a, n - a) for a in range(1, n // 2 + 1)]


def _mono_count(masks: np.ndarray, bits: list[int]) -> int:
    """The copies monochromatic under a coloring given by its colex edge colours.

    A copy is monochromatic exactly when it misses one of the colours; every
    copy has an edge, so the count is the copies minus those that touch both.
    """
    red = sum(1 << e for e, b in enumerate(bits) if b == 0)
    red = np.array([red >> 64 * w & _WORD for w in range(masks.shape[1])], dtype=np.uint64)
    both = (masks & red).any(axis=1) & (masks & ~red).any(axis=1)
    return len(masks) - int(np.count_nonzero(both))


def _seed_incumbent(masks: np.ndarray, n: int) -> tuple[int, TwoColoring]:
    """The first seed coloring with the fewest monochromatic copies, and that count."""
    seeds = _seed_colorings(n)
    counts = [_mono_count(masks, _coloring_to_bits(cand)) for cand in seeds]
    first = counts.index(min(counts))
    return counts[first], seeds[first]


def _require_edge(h: PatternGraph) -> None:
    if h.order < 2 or (h.kind == "explicit" and h.graph.num_edges() == 0):
        raise PreconditionError("search needs a pattern with at least one edge")


TOKEN_VERSION = "ramsey-resume/2"
_TOKEN_FIELDS = ["pattern", "n", "witness", "pending"]


def _pattern_name(h: PatternGraph) -> str:
    """h's CLI label; an explicit pattern, whose label gives only its order, adds its edges."""
    if h.kind != "explicit":
        return h.label()
    return h.label() + ":" + ",".join(f"{u}-{v}" for u, v in h.graph.edges())


def _resume_token(h: PatternGraph, n: int, bits: list[int], jobs: list[list[int]]) -> str:
    witness, *pending = ("".join(map(str, b)) for b in [bits] + jobs)
    fields = [_pattern_name(h), n, witness, ",".join(pending)]
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
    for what, got, want in (("pattern", pattern, _pattern_name(h)), ("n", size, str(n))):
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


def _drain(engine, jobs, best, bits, budget, map_jobs=None, job_nodes=None):
    """Drain a job list: serially, one job per round with all the budget left."""
    map_jobs = map_jobs or (lambda args: [engine.run(*a) for a in args])
    t0 = time.monotonic()
    deadline = t0 + budget.max_seconds if budget.max_seconds else inf
    max_nodes = inf if budget.max_nodes is None else budget.max_nodes
    stats = SearchStats()
    while jobs and (left := max_nodes - stats.nodes) >= 1 and time.monotonic() <= deadline:
        size = 1 if job_nodes is None else min(len(jobs), max(1, left // job_nodes))
        cap = left if job_nodes is None else min(job_nodes, left)
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
                      lambda args: pool.map(_run_job, args, chunksize=1), JOB_SLICE)


def multiplicity(
    h: PatternGraph,
    n: int,
    budget: Optional[SearchBudget] = None,
    threads: int = 1,
    use_symmetry: bool = True,
    resume_token: Optional[str] = None,
) -> MultiplicityReport:
    """Exact minimum number of monochromatic copies of h over colorings of K_n.

    Exhaustive up to the symmetry reductions described in the module
    docstring. A board smaller than the pattern trivially has value 0. On
    budget exhaustion the report is flagged non-exact and carries a resume
    token accepted by a later call; threads > 1 drains with a worker pool.
    """
    budget = budget or SearchBudget.from_env()
    if n < 1:
        raise PreconditionError("board size must be >= 1")
    if n > MAX_VERTICES:
        raise PreconditionError(f"board size {n} exceeds the cap of {MAX_VERTICES} vertices")
    _require_edge(h)
    resume = parse_resume_token(resume_token, h, n) if resume_token else None
    if n < h.order:
        return MultiplicityReport(h, n, 0, TwoColoring(n, 0), SearchStats(leaves=1), exact=True)

    masks = enumerate_copy_masks(h, n)
    seed_val, seed = _seed_incumbent(masks, n)
    # the engine prunes at `best` copies: one above the seed until a leaf
    # sets it, so that a leaf tying the seed is still reached
    best, bits, jobs = seed_val + 1, _coloring_to_bits(seed), [[]]
    if resume is not None:
        witness, jobs = resume
        count = _mono_count(masks, witness)  # recounted, never read from the token
        if count < best:
            best, bits = count, witness
    engine = _Engine(masks, n, use_symmetry)
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
    h: PatternGraph, n: int, budget: Optional[SearchBudget] = None, use_symmetry: bool = True
) -> tuple[Optional[TwoColoring], SearchStats, bool]:
    """Search for a coloring of K_n with no monochromatic copy of h.

    Returns (witness or None, stats, exhaustive). When exhaustive is False
    the budget ran out before the question was settled.
    """
    budget = budget or SearchBudget.from_env()
    _require_edge(h)
    if n < h.order:
        return TwoColoring(n, 0), SearchStats(leaves=1), True
    # quick win: chi-style candidates avoid many patterns outright
    masks = enumerate_copy_masks(h, n)
    count, seed = _seed_incumbent(masks, n)
    if count == 0:
        return seed, SearchStats(leaves=1), True
    best, bits, stats, jobs = _drain(_Engine(masks, n, use_symmetry), [[]], 1, None, budget)
    if best == 0:
        return _bits_to_coloring(n, bits), stats, True
    return None, stats, not jobs


def ramsey_number(
    h: PatternGraph,
    n_max: int = 12,
    budget: Optional[SearchBudget] = None,
    use_symmetry: bool = True,
) -> RamseyNumberReport:
    """Smallest n <= n_max forcing a monochromatic copy of h, by search.

    The returned report carries a zero-copy witness for n-1 and per-board
    statistics. A board below the pattern order is trivially zero-free.
    """
    budget = budget or SearchBudget.from_env()
    witness_prev: Optional[TwoColoring] = None
    per_n = []
    for n in range(1, n_max + 1):
        w, stats, exhaustive = find_zero_coloring(h, n, budget, use_symmetry)
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
    """m(h): the multiplicity at the first board where it is positive."""
    rn = ramsey_number(h, n_max, budget)
    if rn.value is None:
        raise PreconditionError(
            f"ramsey number of {h.label()} exceeds n_max={n_max}; raise n_max"
        )
    return multiplicity(h, rn.value, budget, threads=threads)
