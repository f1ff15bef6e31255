"""Two-clique extremal colorings and certified monochromatic-cycle bounds.

The quantities here live on a bipartition (A, B) of a colored K_n: one
color is dense inside both parts, the other dense across. Within-part
density is pair-normalized, e(S)/C(|S|,2), so a clique scores exactly 1
at every size (a singleton scores 1 vacuously); cross density is
e(A,B)/(|A||B|). One measure, _lambda, turns |A| and the red edges inside
A, inside B and across into the extremality parameter; a blue count is
its pair total minus the red count. The exact scan, local search,
partition_parameter and extremal_inequalities all read it.

The claim verifiers pair a closed-form cycle-count lower bound with an
exact brute-force count and report whether the bound holds; the case-2
decision tree walks the structural analysis of a near-extremal coloring
on 2k-1 vertices and emits the first certified bound whose hypotheses
fire. The verifiers, the tree and the claim battery share one
fewest-common-neighbours helper and one first-missing-edge helper (a blue
pair inside a part is a missing red edge). Bounds involving the constant
e are evaluated in double precision with downward rounding and floored;
exact rational arithmetic is used where the formula is rational.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Optional, Sequence

import numpy as np

from . import rounding
from .errors import (
    DecisionTreeExhaustedError,
    HypothesisError,
    PreconditionError,
    TwoMatchingExistsError,
)
from .graphs import (
    MAX_VERTICES,
    PatternGraph,
    SimpleGraph,
    TwoColoring,
    count_copies,
    pair_index,
    vertex_set,
)

EXACT_PARTITION_CAP = 24  # 2^(n-1) bipartitions; one table of 2^n red-edge counts
_SCAN_CHUNK = 1 << 16  # bipartitions per step of the exact scan


def chi(a: int, b: int) -> TwoColoring:
    """The coloring with blue cliques on {0..a-1} and {a..a+b-1}, red across.

    For odd k >= 5, chi(k-1, k-1) has no monochromatic k-cycle and
    chi(k, k-1) has exactly (k-1)!/2 of them, all in the blue k-clique.
    """
    if a < 1 or b < 1:
        raise PreconditionError("both parts of chi(a, b) must be nonempty")
    n = a + b
    if n > MAX_VERTICES:
        raise PreconditionError(f"chi({a},{b}) exceeds the {MAX_VERTICES}-vertex cap")
    mask = 0
    for i in range(a):
        for j in range(a, n):
            mask |= 1 << pair_index(i, j, n)
    return TwoColoring(n, mask)


# ---------------------------------------------------------------------------
# The extremality measure
# ---------------------------------------------------------------------------


def _densities(n, a, red_a, red_b, red_x, role):
    """The role colour's density inside A and inside B, and the other's across.

    The inputs are |A| and the red edges inside A, inside B and across;
    each blue count is its pair total minus the red count. Scalars or
    numpy arrays. Each density is one integer count divided once, so every
    caller gets the same double.
    """
    b = n - a
    pa, pb, px = a * (a - 1) // 2, b * (b - 1) // 2, a * b
    if role == "red":
        in_a, in_b, cross = red_a, red_b, px - red_x
    else:
        in_a, in_b, cross = pa - red_a, pb - red_b, red_x
    # a part of fewer than two vertices has no pairs and density 1
    none_a, none_b = pa == 0, pb == 0
    return (in_a + none_a) / (pa + none_a), (in_b + none_b) / (pb + none_b), cross / px


def _lambda(n, a, red_a, red_b, red_x, role):
    """The smallest lambda at which the five near-extremality inequalities hold."""
    d_a, d_b, d_x = _densities(n, a, red_a, red_b, red_x, role)
    size = np.maximum(0.5 - a / n, 0.5 - (n - a) / n)
    return np.maximum(np.maximum(size, 1.0 - np.minimum(np.minimum(d_a, d_b), d_x)), 0.0)


def _red_counts(red_adj: Sequence[int], a_mask: int) -> tuple[int, int, int]:
    """Red edges inside A, inside its complement B, and across."""
    b_mask = ((1 << len(red_adj)) - 1) ^ a_mask
    in_a = in_b = cross = 0
    for v, row in enumerate(red_adj):
        if a_mask >> v & 1:
            in_a += (row & a_mask).bit_count()
            cross += (row & b_mask).bit_count()
        else:
            in_b += (row & b_mask).bit_count()
    return in_a // 2, in_b // 2, cross


def _partition_lambda(red_adj: Sequence[int], a_mask: int, role: str) -> float:
    """_lambda of the bipartition whose part A is the vertex mask a_mask."""
    n = len(red_adj)
    return float(_lambda(n, a_mask.bit_count(), *_red_counts(red_adj, a_mask), role))


def extremal_inequalities(
    c: TwoColoring, a_set: Iterable[int], b_set: Iterable[int], lam: float, within_color: str
) -> list[tuple[str, bool, float, float]]:
    """The five near-extremality inequalities at parameter lam.

    within_color is the color dense inside both parts; the other color must
    be dense across. Rows are (name, satisfied, lhs, rhs) with the
    convention lhs >= rhs.
    """
    n = c.n
    va, ma = vertex_set(a_set, n, "A")
    vb, mb = vertex_set(b_set, n, "B")
    if not ma or not mb or ma & mb or len(va) + len(vb) != n:
        raise PreconditionError("A, B must partition the vertex set and be nonempty")
    if within_color not in ("red", "blue"):
        raise PreconditionError("within_color must be 'red' or 'blue'")
    cross_color = "blue" if within_color == "red" else "red"
    counts = _red_counts(c.red_graph().adj, ma)
    d_a, d_b, d_x = _densities(n, len(va), *counts, within_color)
    rows = [
        ("|A| >= (1/2 - lambda) n", float(len(va)), (0.5 - lam) * n),
        ("|B| >= (1/2 - lambda) n", float(len(vb)), (0.5 - lam) * n),
        (f"{within_color} density within A >= 1 - lambda", d_a, 1.0 - lam),
        (f"{within_color} density within B >= 1 - lambda", d_b, 1.0 - lam),
        (f"cross {cross_color} density below 1-lambda", d_x, 1.0 - lam),
    ]
    return [(name, lhs >= rhs - 1e-12, lhs, rhs) for name, lhs, rhs in rows]


def partition_parameter(
    c: TwoColoring, a_set: Iterable[int], within_color: str
) -> float:
    """Smallest lambda making the five inequalities hold for this partition."""
    a_mask = vertex_set(a_set, c.n, "A")[1]
    if not a_mask or a_mask == (1 << c.n) - 1:
        raise PreconditionError("both parts must be nonempty")
    return _partition_lambda(c.red_graph().adj, a_mask, within_color)


@dataclass(frozen=True)
class ExtremalAssessment:
    """Closeness of a coloring to the two-clique extremal structure."""

    n: int
    lambda_star: float
    partition: tuple[tuple[int, ...], tuple[int, ...]]
    color_role: str  # the within-part dense color
    mode: str  # "exact" or "local-search"


def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr.astype(np.uint64)).astype(np.int64)


def _subset_edge_table(g: SimpleGraph) -> np.ndarray:
    """edges[S] = number of g-edges inside vertex subset S, all S."""
    n = g.n
    table = np.zeros(1 << n, dtype=np.int32)
    # subsets keyed by lowest bit v depend on subsets over higher bits only:
    # row h of the view below holds h << (v + 1) in column 0 and, in column
    # 1 << v, the same set with v added
    for v in range(n - 1, -1, -1):
        rows = table.reshape(-1, 2 << v)
        nbrs = np.uint64(g.adj[v] >> (v + 1))
        for lo in range(0, len(rows), _SCAN_CHUNK):
            highs = np.arange(lo, min(lo + _SCAN_CHUNK, len(rows)), dtype=np.uint64)
            block = rows[lo : lo + len(highs)]
            block[:, 1 << v] = block[:, 0] + np.bitwise_count(highs & nbrs)
    return table


def extremal_parameter(
    c: TwoColoring, mode: str = "exact", seed: Optional[int] = None, restarts: int = 20
) -> ExtremalAssessment:
    """Smallest lambda for which the coloring is extremal, with the partition.

    Exact mode scans all bipartitions through one subset table of red edge
    counts (n <= 24); local-search mode hill-climbs from seeded random
    partitions and returns an upper bound on lambda_star. Both read the
    one measure _lambda on red-edge counts.
    """
    n = c.n
    if n < 2:
        raise PreconditionError("extremal parameter needs at least 2 vertices")
    if mode == "exact":
        if n > EXACT_PARTITION_CAP:
            raise PreconditionError(
                f"exact mode supports n <= {EXACT_PARTITION_CAP}; use local-search"
            )
        return _extremal_exact(c)
    if mode == "local-search":
        if seed is None:
            raise PreconditionError("local-search mode requires a seed")
        return _extremal_local(c, seed, restarts)
    raise PreconditionError(f"unknown mode {mode!r}")


def _assessment(n: int, lam: float, a_mask: int, role: str, mode: str) -> ExtremalAssessment:
    a_vs = tuple(v for v in range(n) if a_mask >> v & 1)
    b_vs = tuple(v for v in range(n) if not a_mask >> v & 1)
    return ExtremalAssessment(n, lam, (a_vs, b_vs), role, mode)


def _extremal_exact(c: TwoColoring) -> ExtremalAssessment:
    """The least lambda over every bipartition with vertex 0 in A, scanned in
    chunks of _SCAN_CHUNK masks so that only the subset table is full-length.
    Ties go to the first mask in ascending order, and red before blue."""
    n = c.n
    red = _subset_edge_table(c.red_graph())
    full = (1 << n) - 1
    best = [(math.inf, None, role) for role in ("red", "blue")]
    for lo in range(1, full, 2 * _SCAN_CHUNK):
        masks = np.arange(lo, min(lo + 2 * _SCAN_CHUNK, full), 2, dtype=np.int64)
        red_a, red_b = red[masks], red[full ^ masks]
        red_x = red[full] - red_a - red_b
        a = _popcount(masks)
        for r, (lam_r, _, role) in enumerate(best):
            lam = _lambda(n, a, red_a, red_b, red_x, role)
            i = int(np.argmin(lam))
            if lam[i] < lam_r:
                best[r] = (float(lam[i]), int(masks[i]), role)
    return _assessment(n, *min(best, key=lambda b: b[0]), "exact")


def _extremal_local(c: TwoColoring, seed: int, restarts: int) -> ExtremalAssessment:
    n = c.n
    rng = random.Random(seed)
    red = c.red_graph().adj
    full = (1 << n) - 1
    best = (math.inf, None, None)
    starts = [list(range(n // 2))]
    for _ in range(restarts - 1):
        size = rng.randrange(1, n)
        starts.append(rng.sample(range(n), size))
    for start in starts:
        for role in ("red", "blue"):
            a_cur = sum(1 << v for v in start) or 1
            lam_cur = _partition_lambda(red, a_cur, role)
            improved = True
            while improved:
                improved = False
                for v in range(n):
                    cand = a_cur ^ (1 << v)
                    if not cand or cand == full:
                        continue
                    lam_new = _partition_lambda(red, cand, role)
                    if lam_new < lam_cur - 1e-15:
                        a_cur, lam_cur = cand, lam_new
                        improved = True
            if lam_cur < best[0]:
                best = (lam_cur, a_cur, role)
    return _assessment(n, *best, "local-search")


# ---------------------------------------------------------------------------
# Cleanup of a near-extremal partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CleanupResult:
    a_prime: tuple[int, ...]
    b_prime: tuple[int, ...]
    x: tuple[int, ...]
    y: tuple[int, ...]
    lam: float


def cleanup(
    c: TwoColoring, a_set: Iterable[int], b_set: Iterable[int], lam: float
) -> CleanupResult:
    """Strip low-degree vertices from a near-extremal partition.

    Requires the three density inequalities at parameter lam: red dense
    inside A and inside B, blue dense across (pair-normalized). X collects
    the vertices of A whose red degree inside A is at most
    (1-sqrt(lam))(|A|-1) or whose blue degree into B is at most
    (1-sqrt(lam))|B|; Y is symmetric. The within-part threshold uses |A|-1
    (a vertex has |A|-1 potential in-part neighbors), which keeps
    max-degree vertices clean at every lam and makes
    |X| <= 2 sqrt(lam) |A| provable from the density precondition. The
    size and degree guarantees are re-verified before returning.
    """
    n = c.n
    va, ma = vertex_set(a_set, n, "A")
    vb, mb = vertex_set(b_set, n, "B")
    rows = extremal_inequalities(c, va, vb, lam, "red")
    for name, ok, lhs, rhs in rows:
        if "density" in name and not ok:
            raise PreconditionError(f"{name}: {lhs:.6f} < {rhs:.6f}")
    red = c.red_graph().adj
    root = math.sqrt(lam)

    def degrees(v, own_mask, other_mask):
        # red degree inside the own part; blue degree = pairs into the other part - red
        return (red[v] & own_mask).bit_count(), (~red[v] & other_mask).bit_count()

    def bad(vs, own_mask, other_mask, own_size, other_size):
        out = []
        for v in vs:
            red_in, blue_out = degrees(v, own_mask, other_mask)
            if red_in <= (1 - root) * (own_size - 1) or blue_out <= (1 - root) * other_size:
                out.append(v)
        return tuple(out)

    x = bad(va, ma, mb, len(va), len(vb))
    y = bad(vb, mb, ma, len(vb), len(va))
    a_prime, map_ = vertex_set(set(va) - set(x), n, "A'")
    b_prime, mbp = vertex_set(set(vb) - set(y), n, "B'")
    checks = [
        (len(x) <= 2 * root * len(va) + 1e-9, "|X| <= 2 sqrt(lam) |A|"),
        (len(y) <= 2 * root * len(vb) + 1e-9, "|Y| <= 2 sqrt(lam) |B|"),
        (len(a_prime) >= (1 - 2 * root) * len(va) - 1e-9, "|A'| >= (1 - 2 sqrt(lam)) |A|"),
        (len(b_prime) >= (1 - 2 * root) * len(vb) - 1e-9, "|B'| >= (1 - 2 sqrt(lam)) |B|"),
    ]
    floor = {"A'": (1 - 3 * root) * len(va), "B'": (1 - 3 * root) * len(vb)}
    for own, part, own_mask, other, other_mask in (
        ("A'", a_prime, map_, "B'", mbp),
        ("B'", b_prime, mbp, "A'", map_),
    ):
        for v in part:
            red_in, blue_out = degrees(v, own_mask, other_mask)
            checks.append((red_in >= floor[own] - 1e-9, f"red degree of {v} in {own}"))
            checks.append((blue_out >= floor[other] - 1e-9, f"blue degree of {v} into {other}"))
    for ok, what in checks:
        if not ok:
            raise PreconditionError(f"cleanup guarantee failed: {what}")
    return CleanupResult(a_prime, b_prime, x, y, lam)


# ---------------------------------------------------------------------------
# Structural claims: bounds and verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimVerification:
    bound: float
    threshold: int  # max(0, floor(bound)); what exact_count is tested against
    exact_count: int
    passed: bool


def claim_common_neighbor_bound(s: int, s_size: int, l: int) -> int:
    """(s - l/2 + 3/2)^((l-1)/2) (|S| - (l-1)/2)^((l-3)/2), floored.

    Counts cycles of odd length l built from an edge inside S by
    alternating into the common neighborhoods in T; exact rational
    arithmetic throughout.
    """
    if l % 2 == 0:
        raise PreconditionError("cycle length l must be odd")
    if not 3 <= l <= min(2 * s + 1, 2 * s_size - 1):
        raise PreconditionError(
            f"l={l} outside [3, min(2s+1={2*s+1}, 2|S|-1={2*s_size-1})]"
        )
    base1 = Fraction(2 * s - l + 3, 2)
    base2 = Fraction(s_size - (l - 1) // 2)
    val = base1 ** ((l - 1) // 2) * base2 ** ((l - 3) // 2)
    return math.floor(val)


def fewest_common_neighbors(
    g: SimpleGraph, s_vs: Sequence[int], t_mask: int
) -> tuple[int, tuple[int, int]]:
    """The fewest common neighbours in T over pairs of S, and the first such pair."""
    return min(
        ((g.adj[u] & g.adj[v] & t_mask).bit_count(), (u, v))
        for i, u in enumerate(s_vs)
        for v in s_vs[i + 1 :]
    )


def _first_missing_edge(g: SimpleGraph, vs: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first pair of vs that is not an edge of g; None when vs is a clique."""
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if not g.adj[u] >> v & 1:
                return u, v
    return None


def verify_claim_common_neighbor(
    f: SimpleGraph, s_set: Iterable[int], t_set: Iterable[int], l: int
) -> ClaimVerification:
    """Check the common-neighbor cycle bound against an exact count.

    s is taken as the worst common-neighborhood size in T over pairs of S;
    an edge inside S must exist.
    """
    vs, s_mask = vertex_set(s_set, f.n, "S")
    vt, t_mask = vertex_set(t_set, f.n, "T")
    if s_mask & t_mask:
        raise HypothesisError("S and T must be disjoint")
    if len(vs) < 2:
        raise HypothesisError("S needs at least two vertices")
    s, worst = fewest_common_neighbors(f, vs, t_mask)
    if not any(f.adj[v] & s_mask for v in vs):
        raise HypothesisError("no edge inside S")
    if not 3 <= l <= min(2 * s + 1, 2 * len(vs) - 1):
        raise PreconditionError(
            f"l={l} outside range: pair {worst} has only {s} common neighbors in T"
        )
    bound = claim_common_neighbor_bound(s, len(vs), l)
    exact = count_copies(f, PatternGraph.cycle(l))
    return ClaimVerification(float(bound), bound, exact, exact >= bound)


def _check_path(f: SimpleGraph, p: Sequence[int], name: str) -> None:
    if len(set(p)) != len(p):
        raise HypothesisError(f"{name} repeats a vertex")
    for u, v in zip(p, p[1:]):
        if not f.has_edge(u, v):
            raise HypothesisError(f"{name} uses a missing edge ({u}, {v})")


def _check_bridge(
    f: SimpleGraph, p: Sequence[int], s_mask: int, t_mask: int, name: str
) -> None:
    if not 2 <= len(p) <= 3:
        raise HypothesisError(f"{name} must have length 1 or 2")
    _check_path(f, p, name)
    ends = {p[0], p[-1]}
    in_s = [v for v in ends if s_mask >> v & 1]
    in_t = [v for v in ends if t_mask >> v & 1]
    if len(in_s) != 1 or len(in_t) != 1:
        raise HypothesisError(f"{name} must join S to T")
    for v in p[1:-1]:
        if (s_mask | t_mask) >> v & 1:
            raise HypothesisError(f"{name} interior vertex {v} lies in S or T")


def _claim_length(l: int) -> None:
    """The claim bounds hold for cycle lengths l >= 7 only."""
    if l < 7:
        raise PreconditionError(f"cycle length l={l} outside the claim bounds' range l >= 7")


def bridged_cliques_bound(l: int) -> tuple[float, int]:
    """(((l-1)/2 - 3)/e)^(l-6) with downward rounding; threshold floors at 0."""
    _claim_length(l)
    base = rounding.div_down((l - 1) / 2 - 3, math.e)
    val = rounding.pow_down(base, l - 6)
    return val, max(0, math.floor(val))


def verify_claim_bridged_cliques(
    f: SimpleGraph,
    s_set: Iterable[int],
    t_set: Iterable[int],
    p1: Sequence[int],
    p2: Sequence[int],
    l: int,
) -> ClaimVerification:
    """Two cliques joined by two disjoint short paths force many l-cycles."""
    vs, sm = vertex_set(s_set, f.n, "S")
    vt, tm = vertex_set(t_set, f.n, "T")
    if sm & tm:
        raise HypothesisError("S and T must be disjoint")
    for name, part in (("S", vs), ("T", vt)):
        missing = _first_missing_edge(f, part)
        if missing is not None:
            raise HypothesisError(f"{name} is not a clique: missing {missing}")
    _check_bridge(f, p1, sm, tm, "P1")
    _check_bridge(f, p2, sm, tm, "P2")
    if set(p1) & set(p2):
        raise HypothesisError("P1 and P2 share a vertex")
    if not 7 <= l <= min(2 * len(vs) - 1, 2 * len(vt) - 1):
        raise PreconditionError(
            f"l={l} outside [7, min(2|S|-1={2*len(vs)-1}, 2|T|-1={2*len(vt)-1})]"
        )
    val, threshold = bridged_cliques_bound(l)
    exact = count_copies(f, PatternGraph.cycle(l))
    return ClaimVerification(val, threshold, exact, exact >= threshold)


def alternating_bound(l: int) -> tuple[float, int]:
    """((l-5)/2e)^(l-5) with downward rounding; threshold floors at 0."""
    _claim_length(l)
    base = rounding.div_down(l - 5, 2 * math.e)
    val = rounding.pow_down(base, l - 5)
    return val, max(0, math.floor(val))


def verify_claim_alternating(
    f: SimpleGraph,
    s_set: Iterable[int],
    t_set: Iterable[int],
    w: int,
    p_prime: Sequence[int],
    l: int,
) -> ClaimVerification:
    """Near-complete bipartite S-T plus an external two-path force l-cycles."""
    vs, sm = vertex_set(s_set, f.n, "S")
    vt, tm = vertex_set(t_set, f.n, "T")
    if sm & tm:
        raise HypothesisError("S and T must be disjoint")
    if w not in vs:
        raise HypothesisError("w must lie in S")
    for u in vs:
        if u == w:
            continue
        if (f.adj[u] & tm).bit_count() != len(vt):
            raise HypothesisError(
                f"bipartite graph between S-w and T incomplete at vertex {u}"
            )
    if not f.adj[w] & tm:
        raise HypothesisError("w has no neighbor in T")
    if len(p_prime) != 3:
        raise HypothesisError("P' must be a path of length exactly two")
    _check_bridge(f, p_prime, sm, tm, "P'")
    if l % 2 == 0:
        raise PreconditionError("cycle length l must be odd")
    if not 7 <= l <= min(2 * len(vs) + 1, 2 * len(vt) + 1):
        raise PreconditionError(
            f"l={l} outside [7, min(2|S|+1={2*len(vs)+1}, 2|T|+1={2*len(vt)+1})]"
        )
    val, threshold = alternating_bound(l)
    exact = count_copies(f, PatternGraph.cycle(l))
    return ClaimVerification(val, threshold, exact, exact >= threshold)


# ---------------------------------------------------------------------------
# Two-matching reduction
# ---------------------------------------------------------------------------


def _two_matching_core(rows: Sequence[int]):
    """Decide how to kill all edges of a bipartite row-mask graph.

    Returns ("none",), ("remove_s", i), ("remove_t", j) or
    ("match", (i1, j1, i2, j2)) when two disjoint edges exist.
    """
    nz = [(i, r) for i, r in enumerate(rows) if r]
    if not nz:
        return ("none",)
    if len(nz) == 1:
        return ("remove_s", nz[0][0])
    union = 0
    for _, r in nz:
        union |= r
    if union & (union - 1) == 0:
        return ("remove_t", union.bit_length() - 1)

    def low(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    for x in range(len(nz)):
        i1, r1 = nz[x]
        for i2, r2 in nz[x + 1 :]:
            if r1 & ~r2:
                return ("match", (i1, low(r1 & ~r2), i2, low(r2)))
            if r2 & ~r1:
                return ("match", (i1, low(r1), i2, low(r2 & ~r1)))
            if r1.bit_count() >= 2:
                j1 = low(r1)
                return ("match", (i1, j1, i2, low(r1 ^ (1 << j1))))
    raise AssertionError("unreachable: union had two bits but no disjoint pair")


def two_matching_reduction(
    f: SimpleGraph, s_set: Iterable[int], t_set: Iterable[int]
) -> Optional[int]:
    """One-vertex cover of the S-T edges, or an error carrying a 2-matching.

    Returns None when no S-T edge exists; otherwise the single vertex whose
    removal leaves no edge between S and T. When two vertex-disjoint edges
    exist no such vertex does, and TwoMatchingExistsError carries them
    (the caller's signal to switch to the bridged-cliques argument).
    """
    vs, sm = vertex_set(s_set, f.n, "S")
    vt, tm = vertex_set(t_set, f.n, "T")
    if sm & tm:
        raise PreconditionError("S and T must be disjoint")
    rows = [sum(1 << j for j, t in enumerate(vt) if f.has_edge(u, t)) for u in vs]
    verdict = _two_matching_core(rows)
    if verdict[0] == "none":
        return None
    if verdict[0] == "remove_s":
        return vs[verdict[1]]
    if verdict[0] == "remove_t":
        return vt[verdict[1]]
    i1, j1, i2, j2 = verdict[1]
    raise TwoMatchingExistsError((vs[i1], vt[j1]), (vs[i2], vt[j2]))


# ---------------------------------------------------------------------------
# Case-2 decision tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseTwoCertificate:
    """A certified lower bound on the monochromatic k-cycle count."""

    bound: int
    claim_used: str  # blue-edge-in-clique | two-red-bridges | blue-two-path | red-clique-K_k
    witness_structure: dict
    color_swapped: bool  # True when the input's blue was the within-dense color
    trace: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "bound": self.bound,
            "claim_used": self.claim_used,
            "witness_structure": {
                key: list(val) if isinstance(val, (tuple, list)) else val
                for key, val in self.witness_structure.items()
            },
            "color_swapped": self.color_swapped,
            "trace": list(self.trace),
        }


def _find_two_disjoint_bridges(gr: SimpleGraph, s_vs, t_vs, middles):
    """Two vertex-disjoint red paths of length <= 2 joining S to T, if any."""
    bridges = []
    for a in s_vs:
        for b in t_vs:
            if gr.has_edge(a, b):
                bridges.append((a, b))
    for m in middles:
        for a in s_vs:
            if not gr.has_edge(a, m):
                continue
            for b in t_vs:
                if gr.has_edge(m, b):
                    bridges.append((a, m, b))
    for i, p1 in enumerate(bridges):
        set1 = set(p1)
        for p2 in bridges[i + 1 :]:
            if not set1 & set(p2):
                return p1, p2
    return None


def case2_lower_bound(
    c: TwoColoring,
    k: int,
    a_set: Iterable[int],
    b_set: Iterable[int],
    lam: float,
) -> CaseTwoCertificate:
    """Certified monochromatic C_k lower bound for a near-extremal coloring.

    Walks the structural decision tree on K_{2k-1}: cleanup, then in order
    a blue edge inside a cleaned part, two disjoint red bridges, the
    two-matching reduction, a blue two-path, the merged-part re-checks,
    and the red-K_k fallback worth (k-1)!/2. Colors are normalized so red
    is the within-part dense color; the certificate records the swap. If a
    branch's structure is present but k is outside the claim's range (the
    small-k regime), the tree stops with a diagnostic instead of certifying.
    """
    n = c.n
    if n != 2 * k - 1:
        raise PreconditionError(f"need n = 2k-1 = {2*k-1}, got {n}")
    if k % 2 == 0 or k < 3:
        raise PreconditionError("k must be an odd integer >= 3")
    va = vertex_set(a_set, n, "A")[0]
    vb = vertex_set(b_set, n, "B")[0]
    rows_red = extremal_inequalities(c, va, vb, lam, "red")
    broken = next((name for name, ok, _, _ in rows_red if not ok), None)
    swapped = broken is not None
    if swapped and not all(ok for _, ok, _, _ in extremal_inequalities(c, va, vb, lam, "blue")):
        raise PreconditionError(
            f"(A,B) is not extremal at lambda={lam} in either color role: {broken}"
        )
    work = c.swapped() if swapped else c
    trace = []
    gr, gb = work.red_graph(), work.blue_graph()
    clean = cleanup(work, va, vb, lam)
    ap, bp = clean.a_prime, clean.b_prime
    trace.append(f"cleanup: |A'|={len(ap)} |B'|={len(bp)} |X|={len(clean.x)} |Y|={len(clean.y)}")

    def certify(stage, event, bound, claim, color, **witness) -> CaseTwoCertificate:
        # color names in the certificate refer to the ORIGINAL coloring
        witness["cycle_color"] = {"red": "blue", "blue": "red"}[color] if swapped else color
        trace.append(f"{stage}: {event}")
        return CaseTwoCertificate(bound, claim, witness, swapped, tuple(trace))

    def outside_range(stage: str, structure: str, detail: str = ""):
        return DecisionTreeExhaustedError(
            f"{stage}: {structure} present but k={k} outside claim range{detail}"
        )

    def fire_common_neighbor(s_vs, t_vs, edge, stage: str) -> CaseTwoCertificate:
        s = fewest_common_neighbors(gb, s_vs, vertex_set(t_vs, n, "T")[1])[0]
        if not 3 <= k <= min(2 * s + 1, 2 * len(s_vs) - 1):
            raise outside_range(stage, "blue edge", f" (s={s}, |S|={len(s_vs)})")
        bound = claim_common_neighbor_bound(s, len(s_vs), k)
        return certify(stage, f"fired with s={s}, |S|={len(s_vs)}", bound,
                       "blue-edge-in-clique", "blue", S=s_vs, T=t_vs, edge=edge, s=s)

    def fire_bridges(s_vs, t_vs, pair, stage: str) -> CaseTwoCertificate:
        if not 7 <= k <= min(2 * len(s_vs) - 1, 2 * len(t_vs) - 1):
            raise outside_range(stage, "two disjoint red bridges",
                                f" (|S|={len(s_vs)}, |T|={len(t_vs)})")
        p1, p2 = pair
        return certify(stage, f"fired with P1={p1}, P2={p2}", bridged_cliques_bound(k)[1],
                       "two-red-bridges", "red", S=s_vs, T=t_vs, P1=p1, P2=p2)

    def fire_two_path(s_vs, t_vs, w, p_prime, stage: str) -> CaseTwoCertificate:
        if not 7 <= k <= min(2 * len(s_vs) + 1, 2 * len(t_vs) + 1):
            raise outside_range(stage, "blue two-path")
        return certify(stage, f"fired with P'={p_prime}", alternating_bound(k)[1],
                       "blue-two-path", "blue", S=s_vs, T=t_vs, w=w, P_prime=p_prime)

    def fire_red_clique(clique, stage: str) -> CaseTwoCertificate:
        assert _first_missing_edge(gr, clique) is None, "internal: fallback is not a red clique"
        return certify(stage, f"red clique of order {len(clique)}", factorial(k - 1) // 2,
                       "red-clique-K_k", "red", clique=clique)

    # Stage 1: a blue edge inside a cleaned part, that is a missing red edge
    for part, other in ((ap, bp), (bp, ap)):
        edge = _first_missing_edge(gr, part)
        if edge is not None:
            return fire_common_neighbor(part, other, edge, "stage-1")
    trace.append("stage-1: A', B' are red cliques")

    # Stage 2: two vertex-disjoint red bridges between A' and B'
    outside = tuple(v for v in range(n) if v not in set(ap) | set(bp))
    pair = _find_two_disjoint_bridges(gr, ap, bp, outside)
    if pair is not None:
        return fire_bridges(ap, bp, pair, "stage-2")
    trace.append("stage-2: no two disjoint red bridges between A' and B'")

    # Stage 3: remove one vertex so the cross is fully blue
    removed = two_matching_reduction(gr, ap, bp)
    if removed is None:
        a2, b2 = ap, bp
    elif removed in set(ap):
        a2 = tuple(v for v in ap if v != removed)
        b2 = bp
    else:
        # mirror: swap part labels so the removed vertex always leaves "A"
        a2 = tuple(v for v in bp if v != removed)
        b2 = ap
    trace.append(f"stage-3: removed {removed}; cross A''-B' now fully blue")
    if not a2 or not b2:
        raise DecisionTreeExhaustedError("stage-3: a part vanished after removal")

    # Stage 4: re-check disjoint red bridges with the shrunken part
    rest = tuple(v for v in range(n) if v not in set(a2) | set(b2))
    pair = _find_two_disjoint_bridges(gr, a2, b2, rest)
    if pair is not None:
        return fire_bridges(a2, b2, pair, "stage-4")

    # Stage 5: a blue two-path with an outside middle vertex
    for m in rest:
        a_nb = next((a for a in a2 if gb.has_edge(a, m)), None)
        b_nb = next((b for b in b2 if gb.has_edge(m, b)), None)
        if a_nb is not None and b_nb is not None:
            return fire_two_path(a2, b2, a_nb, (a_nb, m, b_nb), "stage-5")
    trace.append("stage-5: every outside vertex is fully red to A'' or to B'")

    # Stage 6: split outside vertices by which part they are fully red to
    z1 = tuple(m for m in rest if all(gr.has_edge(m, a) for a in a2))
    z2 = tuple(m for m in rest if m not in set(z1))
    for m in z2:
        assert all(gr.has_edge(m, b) for b in b2), "internal: stage-5 postcondition"
    violations = [(z, b) for z in z1 for b in b2 if gr.has_edge(z, b)]
    violations += [(z, a) for z in z2 for a in a2 if gr.has_edge(z, a)]
    star_vertex = None
    if violations:
        shared = set(violations[0])
        for edge in violations[1:]:
            shared &= set(edge)
        if not shared:
            raise DecisionTreeExhaustedError(
                "stage-6: disjoint red violations escaped the bridge re-check"
            )
        star_vertex = min(shared)
    drop = {star_vertex} if star_vertex is not None else set()
    a3 = tuple(v for v in a2 if v not in drop)
    b3 = tuple(v for v in b2 if v not in drop)
    z1p = tuple(v for v in z1 if v not in drop)
    z2p = tuple(v for v in z2 if v not in drop)
    trace.append(f"stage-6: removed {star_vertex}; Z1={z1p} Z2={z2p}")

    at = tuple(sorted(a3 + z1p))
    bt = tuple(sorted(b3 + z2p))

    # Stage 7: a blue edge inside a merged part
    for part, core in ((at, b3), (bt, a3)):
        edge = _first_missing_edge(gr, part)
        if edge is not None:
            if not core:
                raise DecisionTreeExhaustedError("stage-7: empty opposite core")
            return fire_common_neighbor(part, core, edge, "stage-7")
    trace.append("stage-7: merged parts are red cliques")

    # Stage 8: a red K_k already
    if len(at) >= k:
        return fire_red_clique(at[:k], "stage-8")
    if len(bt) >= k:
        return fire_red_clique(bt[:k], "stage-8")
    if len(at) + len(bt) < 2 * k - 2:
        raise DecisionTreeExhaustedError(
            f"stage-8: |A~|+|B~| = {len(at)+len(bt)} < 2k-2; decision tree exhausted"
        )

    # Stage 9: two disjoint red edges between the merged parts
    pair = _find_two_disjoint_bridges(gr, at, bt, ())
    if pair is not None:
        return fire_bridges(at, bt, pair, "stage-9")

    # Stage 10: final one-vertex reduction and the leftover vertex
    w = two_matching_reduction(gr, at, bt)
    if w is not None and w in set(bt):
        at, bt = bt, at  # mirror so w is in the "A" side
    if w is not None:
        if not any(gb.has_edge(w, b) for b in bt):
            return fire_red_clique(tuple(sorted(bt + (w,)))[:k], "stage-10")
    leftover = tuple(v for v in range(n) if v not in set(at) | set(bt))
    if not leftover:
        raise DecisionTreeExhaustedError("stage-10: no leftover vertex and no red K_k")
    u = leftover[0]
    u_blue_a = next((a for a in at if gb.has_edge(u, a)), None)
    u_blue_b = next((b for b in bt if gb.has_edge(u, b)), None)
    if u_blue_a is not None and u_blue_b is not None:
        w_eff = w if w is not None else at[0]
        return fire_two_path(at, bt, w_eff, (u_blue_a, u, u_blue_b), "stage-10")
    if u_blue_a is None:
        return fire_red_clique(tuple(sorted(at + (u,)))[:k], "stage-10")
    return fire_red_clique(tuple(sorted(bt + (u,)))[:k], "stage-10")
