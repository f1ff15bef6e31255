"""Regular-pair machinery: density, exact regularity checking, exact
transversal path and cycle counts, and closed-form count lower bounds with
a verification harness.

The exact counts are graphs.count_walks, the numpy walk DP over vertex-set
rows (one integer matmul per layer), with one class mask per step; capped
cycle counts are graphs._count_cycles_backtrack, the same DP over every
least-vertex anchor at once. Both charge a node budget the way a
depth-first search over the same walks would, and look three layers
ahead so that a count that will run out stops early.

The counting bounds assume parameter regimes (eps below 1e-5, classes of
size eps^-2) that no desk-scale instance reaches. The harness therefore
measures the actual regularity defect of each concrete instance with the
exact checker, evaluates the bounds at the measured parameters, and
records an honest verdict: "pass" when the hypotheses hold and the exact
count clears the bound, "vacuous" when the measured parameters violate
the hypotheses, "FAIL" only when a met bound is beaten by the count.
Bounds are evaluated with downward-rounded float arithmetic so a pass is
never an artifact of rounding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import rounding
from .errors import BudgetExceededError, PreconditionError
from .graphs import SimpleGraph, _count_cycles_backtrack, count_walks, vertex_set

EXACT_REGULARITY_CAP = 14


# ---------------------------------------------------------------------------
# Density and regularity
# ---------------------------------------------------------------------------


def _pair(g: SimpleGraph, xs, ys, y_name: str = "Y", identical_ok: bool = False):
    """X and Y through graphs.vertex_set, nonempty and disjoint (or, with
    identical_ok, identical): (vx, mx, vy, my)."""
    vx, mx = vertex_set(xs, g.n, "X")
    vy, my = vertex_set(ys, g.n, y_name)
    if not mx or not my:
        raise PreconditionError(f"X and {y_name} must be nonempty")
    if mx & my and not (identical_ok and mx == my):
        either = " or identical" if identical_ok else ""
        raise PreconditionError(f"X and {y_name} must be disjoint{either}")
    return vx, mx, vy, my


def _edges_into(g: SimpleGraph, vs: Iterable[int], mask: int) -> int:
    """Edges from the vertices vs into the vertex mask."""
    return sum((g.adj[v] & mask).bit_count() for v in vs)


def density(g: SimpleGraph, xs: Iterable[int], ys: Iterable[int]) -> float:
    """Edge density d(X, Y) = e(X,Y)/|X||Y|; for X = Y, 2e(X)/|X|^2.

    X and Y must be either disjoint or identical.
    """
    vx, _, vy, my = _pair(g, xs, ys, identical_ok=True)
    return _edges_into(g, vx, my) / (len(vx) * len(vy))


@dataclass(frozen=True)
class RegularityResult:
    verdict: str  # "regular" | "irregular" | "unknown"
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    deviation: Optional[float] = None


def _deviation_table(g: SimpleGraph, vx: Sequence[int], vy: Sequence[int], my: int):
    """The one exact subset scan: the worst deviation of every (|U|, |V|) cell.

    With E = e(X, Y), the deviation of U, V with e edges between them is
    |e/(|U| m) - E/(nx ny)| = |e nx ny - E |U| m| / (|U| m nx ny), m = |V|,
    whose denominator is fixed per (|U|, m) cell. The densest and sparsest
    V of size m are the m largest and smallest degrees into U, so one numpy
    pass over every U (bit b picks vx[b]) sorts its degrees into Y and sums
    them from both ends. worst[i][m] is the largest integer numerator over
    |U| = i, and arg[i][m] the vertex mask of the first U in subset order
    reaching it, written only when it beats 0.
    """
    nx, ny = len(vx), len(vy)
    if nx > EXACT_REGULARITY_CAP or ny > EXACT_REGULARITY_CAP:
        raise PreconditionError(f"exact regularity supports side sizes <= {EXACT_REGULARITY_CAP}")
    nxy = nx * ny
    edges = _edges_into(g, vx, my)
    # column j: the bits b of the vertices vx[b] adjacent to vy[j]
    cols = np.array([sum(1 << b for b, x in enumerate(vx) if g.adj[y] >> x & 1) for y in vy],
                    dtype=np.uint16)
    subsets = np.arange(1 << nx, dtype=np.uint16)
    degs = np.sort(np.bitwise_count(subsets[:, None] & cols), axis=1).astype(np.int64)
    usize = np.bitwise_count(subsets)
    target = edges * usize[:, None].astype(np.int64) * np.arange(1, ny + 1)  # E |U| m
    lo_e = np.cumsum(degs, axis=1)  # column m - 1: the m smallest degrees into U
    hi_e = np.cumsum(degs[:, ::-1], axis=1)  # the m largest
    num = np.maximum(hi_e * nxy - target, target - lo_e * nxy)
    worst = np.zeros((nx + 1, ny + 1), dtype=np.int64)
    arg = [[0] * (ny + 1) for _ in range(nx + 1)]
    for i in range(1, nx + 1):
        group = np.flatnonzero(usize == i)
        first = num[group].argmax(axis=0)
        worst[i, 1:] = num[group[first], np.arange(ny)]
        for m in np.flatnonzero(worst[i, 1:]).tolist():
            u = int(group[first[m]])
            arg[i][m + 1] = sum(1 << x for b, x in enumerate(vx) if u >> b & 1)
    return worst.tolist(), arg, edges


def check_regularity(
    g: SimpleGraph,
    xs: Iterable[int],
    ys: Iterable[int],
    eps: float,
    mode: str = "exact",
    samples: int = 200,
    seed: Optional[int] = None,
) -> RegularityResult:
    """Decide eps-regularity of the disjoint pair (X, Y) in g.

    Exact mode reads the deviation table of _deviation_table, a full
    decision procedure for |X|, |Y| <= EXACT_REGULARITY_CAP: the pair is
    irregular iff a cell with |U| >= u0 and |V| >= v0 has a deviation above
    eps. The witness comes from the worst such cell: its U, and the |V|
    highest- or lowest-degree vertices of Y into U. Randomized mode samples
    floor-size subset pairs and can only answer "irregular" (with witness)
    or "unknown". Every deviation is an integer ratio divided once, so it is
    correctly rounded.
    """
    vx, _, vy, my = _pair(g, xs, ys)
    if not 0 < eps < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    nx, ny = len(vx), len(vy)
    nxy = nx * ny
    u0 = max(1, math.ceil(eps * nx - 1e-12))
    v0 = max(1, math.ceil(eps * ny - 1e-12))
    if mode == "randomized":
        if seed is None:
            raise PreconditionError("randomized mode requires a seed")
        rng = random.Random(seed)
        target = _edges_into(g, vx, my) * u0 * v0
        for _ in range(samples):
            u = tuple(sorted(rng.sample(vx, u0)))
            v, mv = vertex_set(rng.sample(vy, v0), g.n, "V")
            dev = abs(_edges_into(g, u, mv) * nxy - target) / (u0 * v0 * nxy)
            if dev > eps:
                return RegularityResult("irregular", (u, v), dev)
        return RegularityResult("unknown")
    if mode != "exact":
        raise PreconditionError(f"unknown mode {mode!r}")
    worst, arg, edges = _deviation_table(g, vx, vy, my)
    dev, i, m = max(
        (worst[i][m] / (i * m * nxy), i, m)
        for i in range(u0, nx + 1)
        for m in range(v0, ny + 1)
    )
    if not dev > eps:
        return RegularityResult("regular")
    umask = arg[i][m]
    degs = [(g.adj[y] & umask).bit_count() for y in vy]
    order = sorted(range(ny), key=degs.__getitem__)
    hi, lo = order[ny - m :], order[:m]
    target = edges * i * m
    pick = hi if sum(degs[k] for k in hi) * nxy - target == worst[i][m] else lo
    u = tuple(x for x in vx if umask >> x & 1)
    return RegularityResult("irregular", (u, tuple(sorted(vy[k] for k in pick))), dev)


def regularity_defect(g: SimpleGraph, xs: Iterable[int], ys: Iterable[int]) -> float:
    """The infimum eps for which (X, Y) is eps-regular (may be unattained).

    Built from the deviation table of _deviation_table, intersected with
    the size-floor geometry ceil(eps|X|), ceil(eps|Y|). Each cell's largest
    numerator is divided once; integer true division rounds correctly and
    rounding is monotone, so every cell gets the same float as the largest
    of its exactly computed deviations.
    """
    vx, _, vy, my = _pair(g, xs, ys)
    worst = _deviation_table(g, vx, vy, my)[0]
    nx, ny = len(vx), len(vy)
    nxy = nx * ny
    # suffix maxima: S[i][j] = worst deviation over sizes >= (i, j)
    suffix = [[0.0] * (ny + 2) for _ in range(nx + 2)]
    for i in range(nx, 0, -1):
        for j in range(ny, 0, -1):
            suffix[i][j] = max(
                worst[i][j] / (i * j * nxy), suffix[i + 1][j], suffix[i][j + 1]
            )
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


def degree_exception_counts(
    g: SimpleGraph, xs: Iterable[int], y_sub: Iterable[int], d: float, eps: float
) -> tuple[int, int]:
    """Vertices of X with degree into Y' above (d+eps)|Y'| / below (d-eps)|Y'|."""
    vx, _, vy, my = _pair(g, xs, y_sub, "Y'")
    hi = lo = 0
    for x in vx:
        deg = (g.adj[x] & my).bit_count()
        if deg > (d + eps) * len(vy) + 1e-12:
            hi += 1
        if deg < (d - eps) * len(vy) - 1e-12:
            lo += 1
    return hi, lo


def slice_params(eps: float, alpha: float) -> float:
    """Regularity parameter after restricting to alpha-fraction subsets."""
    if not 0 < alpha <= 1:
        raise PreconditionError("alpha must lie in (0, 1]")
    return max(eps / alpha, 2 * eps)


# ---------------------------------------------------------------------------
# Pair systems and transversal path oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairSystem:
    """t disjoint classes in a ring, with bipartite graphs between
    cyclically consecutive classes; indices live in Z/tZ."""

    classes: tuple[tuple[int, ...], ...]
    graph: SimpleGraph
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = len(self.classes)
        if t < 2:
            raise PreconditionError("a pair system needs at least 2 classes")
        masks, seen = [], 0
        for i, cls in enumerate(self.classes):
            mask = vertex_set(cls, self.graph.n, f"class {i}")[1]
            if mask & seen:
                raise PreconditionError("classes must be pairwise disjoint")
            masks.append(mask)
            seen |= mask
        object.__setattr__(self, "masks", tuple(masks))
        cls_of = self.class_of
        for u, v in self.graph.edges():
            cu, cv = cls_of.get(u), cls_of.get(v)
            if cu is None or cv is None:
                raise PreconditionError(f"edge ({u},{v}) touches a vertex in no class")
            if (cu - cv) % t not in (1, t - 1):
                raise PreconditionError(
                    f"edge ({u},{v}) joins non-consecutive classes {cu},{cv}"
                )

    @property
    def t(self) -> int:
        return len(self.classes)

    @property
    def class_of(self) -> dict[int, int]:
        return {v: i for i, cls in enumerate(self.classes) for v in cls}

    @staticmethod
    def build(sizes: Sequence[int], edges: Iterable[tuple[int, int]]) -> "PairSystem":
        classes = []
        v = 0
        for s in sizes:
            classes.append(tuple(range(v, v + s)))
            v += s
        g = SimpleGraph.from_edges(v, edges)
        return PairSystem(tuple(classes), g)

    def consecutive_pairs(self) -> list[tuple[int, int]]:
        t = self.t
        if t == 2:
            return [(0, 1)]
        return [(i, (i + 1) % t) for i in range(t)]

    def min_class_size(self) -> int:
        return min(len(c) for c in self.classes)


def _ring(sizes: Sequence[int], keep) -> PairSystem:
    """Classes of the given sizes in a ring; between cyclically consecutive
    classes i and j, the a-th vertex of V_i and the b-th of V_j are joined
    when keep(a, b)."""
    t = len(sizes)
    offs = [sum(sizes[:i]) for i in range(t)]
    edges = [
        (offs[i] + a, offs[j] + b)
        for i in range(1 if t == 2 else t)
        for j in [(i + 1) % t]
        for a in range(sizes[i])
        for b in range(sizes[j])
        if keep(a, b)
    ]
    return PairSystem.build(sizes, edges)


def complete_ring(sizes: Sequence[int]) -> PairSystem:
    return _ring(sizes, lambda a, b: True)


def complete_minus_matching_ring(sizes: Sequence[int]) -> PairSystem:
    return _ring(sizes, lambda a, b: a != b)  # drop the natural matching


def quasirandom_ring(sizes: Sequence[int], d: float, rng: random.Random) -> PairSystem:
    return _ring(sizes, lambda a, b: rng.random() < d)


def count_transversal_paths(
    sys: PairSystem, w0: int, ell: int, budget: Optional[int] = None
) -> int:
    """Paths w_0 w_1 ... w_ell with w_i in V_{i mod t}, all vertices distinct.

    Counts vertex sequences anchored at w0 (for open paths this equals the
    subgraph count, the start pins the direction). budget caps the nodes of
    the depth-first search over the sequence prefixes w_0 ... w_i, 0 <= i <=
    ell (graphs.count_walks; None means no cap).
    """
    if ell < 1:
        raise PreconditionError("path length must be >= 1")
    if w0 not in sys.classes[0]:
        raise PreconditionError("w0 must lie in class V_0")
    steps = [1 << w0] + [sys.masks[i % sys.t] for i in range(1, ell + 1)]
    return count_walks(sys.graph.adj, steps, budget=budget)[0]


def count_transversal_paths_between(
    sys: PairSystem, w0: int, w0_prime: int, ell: int, budget: Optional[int] = None
) -> int:
    """Transversal sequences of length ell from w0 to w0_prime, both in V_0.

    ell must be divisible by t. Counts anchored sequences: interior
    vertices are distinct and avoid both endpoints. With w0 = w0_prime the
    sequences close into cycles through w0; each class-aligned cycle is
    then seen once per direction whose class pattern matches (twice when
    t = 2, once for t >= 3). budget caps the nodes of the depth-first search
    over the prefixes w_0 ... w_i, 0 <= i <= ell - 1 (None means no cap).
    """
    if ell % sys.t != 0:
        raise PreconditionError(f"ell={ell} not divisible by t={sys.t}")
    if ell < 2:
        raise PreconditionError("ell must be >= 2")
    if w0 not in sys.classes[0] or w0_prime not in sys.classes[0]:
        raise PreconditionError("both endpoints must lie in V_0")
    ends = (1 << w0) | (1 << w0_prime)
    steps = [1 << w0] + [sys.masks[i % sys.t] & ~ends for i in range(1, ell)]
    return count_walks(sys.graph.adj, steps, w0_prime, budget)[0]


# ---------------------------------------------------------------------------
# Closed-form count lower bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeParams:
    """Parameter bundle tying the bound evaluators together.

    alpha left at 0 follows the paper's chain, alpha = 20 sqrt(eps); a
    given alpha is kept. lam is always derived, lam = 300 sqrt(alpha).
    """

    eps: float
    d: float
    t: int
    alpha: float = 0.0
    lam: float = field(init=False)

    def __post_init__(self):
        if not 0 <= self.eps < 1:
            raise PreconditionError("eps must lie in [0, 1)")
        if not self.alpha:
            object.__setattr__(self, "alpha", 20 * math.sqrt(self.eps))
        object.__setattr__(self, "lam", 300 * math.sqrt(self.alpha))


@dataclass(frozen=True)
class BoundEvaluation:
    value: float
    hypotheses: tuple[tuple[str, bool], ...]

    @property
    def met(self) -> bool:
        return all(ok for _, ok in self.hypotheses)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "hypotheses_met": self.met,
            "hypotheses": [{"name": n, "ok": ok} for n, ok in self.hypotheses],
        }


def _size_hyp(eps: float, n: int, t_factor: int = 1) -> bool:
    # n >= t * eps^-2; the eps -> 0 limit is treated as satisfied
    return eps == 0.0 or n * eps * eps >= t_factor - 1e-12


def _falling_product_down(n: int, t: int, upper: int) -> float:
    out = 1.0
    for i in range(1, upper + 1):
        factor = n - i // t
        if factor <= 0:
            return 0.0
        out = rounding.mul_down(out, float(factor))
    return out


def transversal_path_bound_fixed_start(p: RegimeParams, n: int, ell: int) -> BoundEvaluation:
    """(d - eps - sqrt(eps))^ell * prod_{i=1}^{ell} (n - floor(i/t)).

    Lower-bounds the transversal paths of length ell from a well-connected
    start vertex. CLI name: countpath2-p1.
    """
    eps, d, t = p.eps, p.d, p.t
    root = rounding.sqrt_up(eps)
    hyps = (
        ("eps < 1e-5", eps < 1e-5),
        ("t >= 2", t >= 2),
        ("n >= eps^-2", _size_hyp(eps, n)),
        ("d >= 5 sqrt(eps)", d >= 5 * math.sqrt(eps) - 1e-12),
        ("2 <= ell <= t(1-sqrt(eps))n", 2 <= ell <= t * (1 - math.sqrt(eps)) * n),
    )
    base = d - eps - root
    value = 0.0
    if base > 0:
        value = rounding.mul_down(
            rounding.pow_down(base, ell), _falling_product_down(n, t, ell)
        )
    return BoundEvaluation(value, hyps)


def transversal_path_bound_fixed_ends(p: RegimeParams, n: int, ell: int) -> BoundEvaluation:
    """(d-5se)^(ell-1) (1-2se)^(ell-2) (eps n) prod_{i=1}^{ell-2} (n - floor(i/t)),
    se = sqrt(eps); paths with both end vertices pinned in V_0.

    CLI name: countpath2-p2.
    """
    eps, d, t = p.eps, p.d, p.t
    root = rounding.sqrt_up(eps)
    hyps = (
        ("eps < 1e-5", eps < 1e-5),
        ("t >= 2", t >= 2),
        ("n >= eps^-2", _size_hyp(eps, n)),
        ("d >= 5 sqrt(eps)", d >= 5 * math.sqrt(eps) - 1e-12),
        ("4 <= ell <= t(1-3 sqrt(eps))n", 4 <= ell <= t * (1 - 3 * math.sqrt(eps)) * n),
        ("t divides ell", ell % t == 0),
    )
    base1 = d - 5 * root
    base2 = 1 - 2 * root
    value = 0.0
    if base1 > 0 and base2 > 0:
        value = rounding.pow_down(base1, ell - 1)
        value = rounding.mul_down(value, rounding.pow_down(base2, ell - 2))
        value = rounding.mul_down(value, rounding.down(eps * n))
        value = rounding.mul_down(value, _falling_product_down(n, t, ell - 2))
    return BoundEvaluation(value, hyps)


def ring_cycle_bound(p: RegimeParams, n: int, cycle_len: int) -> BoundEvaluation:
    """(eps^2/4) n^4 (d-10se)^(p-2) (1-3se)^(2p) prod_{i=1}^{p-4} (n-floor(i/t)).

    Lower-bounds the cycles of odd length p in the ring system. CLI name:
    countcycle1.
    """
    eps, d, t = p.eps, p.d, p.t
    q = cycle_len
    root = rounding.sqrt_up(eps)
    hyps = (
        ("eps < 1e-5", eps < 1e-5),
        ("t odd >= 3", t >= 3 and t % 2 == 1),
        ("n >= t eps^-2", _size_hyp(eps, n, t)),
        ("d >= 10 sqrt(eps)", d >= 10 * math.sqrt(eps) - 1e-12),
        ("p odd", q % 2 == 1),
        ("2t+6 <= p <= t(1-5 sqrt(eps))n", 2 * t + 6 <= q <= t * (1 - 5 * math.sqrt(eps)) * n),
    )
    base1 = d - 10 * root
    base2 = 1 - 3 * root
    value = 0.0
    if base1 > 0 and base2 > 0:
        value = rounding.mul_down(rounding.down(eps * eps / 4), float(n) ** 4)
        value = rounding.mul_down(value, rounding.pow_down(base1, q - 2))
        value = rounding.mul_down(value, rounding.pow_down(base2, 2 * q))
        value = rounding.mul_down(value, _falling_product_down(n, t, q - 4))
    return BoundEvaluation(value, hyps)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

LEMMA_NAMES = {
    "countpath2-p1": "fixed-start transversal paths",
    "countpath2-p2": "fixed-ends transversal paths",
    "countcycle1": "ring cycles",
}

FAMILIES = ("complete", "complete-minus-matching", "quasirandom")
QUASIRANDOM_DENSITIES = (0.3, 0.5, 0.7)  # edge probabilities of the quasirandom family


@dataclass(frozen=True)
class GridSpec:
    """Instance generator grid for one lemma verification run."""

    lemma: str
    t_values: tuple[int, ...]
    size_lo: int
    size_hi: int
    families: tuple[str, ...] = FAMILIES
    instances_per_cell: int = 100
    count_budget: int = 300_000

    @staticmethod
    def default(lemma: str) -> "GridSpec":
        if lemma in ("countpath2-p1", "countpath2-p2"):
            return GridSpec(lemma, (2, 3), 4, 10)
        if lemma == "countcycle1":
            return GridSpec(lemma, (3,), 4, 6)
        raise PreconditionError(f"unknown lemma {lemma!r}")


@dataclass
class LemmaRow:
    family: str
    t: int
    sizes: tuple[int, ...]
    eps_hat: float
    d: float
    n: int
    length: int
    bound: float
    hypotheses_met: bool
    exact: Optional[int]
    count_complete: bool
    verdict: str  # pass | vacuous | FAIL | undecided-budget
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "t": self.t,
            "sizes": list(self.sizes),
            "eps_hat": round(self.eps_hat, 9),
            "d": round(self.d, 9),
            "n": self.n,
            "length": self.length,
            "bound": self.bound,
            "hypotheses_met": self.hypotheses_met,
            "exact": self.exact,
            "count_complete": self.count_complete,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass
class LemmaVerificationReport:
    lemma: str
    seed: int
    rows: list[LemmaRow] = field(default_factory=list)

    def tally(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.verdict] = out.get(row.verdict, 0) + 1
        return out

    def as_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "seed": self.seed,
            "tally": self.tally(),
            "rows": [r.as_dict() for r in self.rows],
        }


def _make_instance(family: str, sizes, rng: random.Random) -> PairSystem:
    if family == "complete":
        return complete_ring(sizes)
    if family == "complete-minus-matching":
        return complete_minus_matching_ring(sizes)
    if family == "quasirandom":
        return quasirandom_ring(sizes, rng.choice(QUASIRANDOM_DENSITIES), rng)
    raise PreconditionError(f"unknown family {family!r}")


def _measure(sys: PairSystem) -> tuple[float, float]:
    """Worst regularity defect and least density over consecutive pairs."""
    eps_hat = 0.0
    d_min = 1.0
    for i, j in sys.consecutive_pairs():
        xs, ys = sys.classes[i], sys.classes[j]
        eps_hat = max(eps_hat, regularity_defect(sys.graph, xs, ys))
        d_min = min(d_min, density(sys.graph, xs, ys))
    return eps_hat, d_min


def _qualifying_vertex(sys: PairSystem, cls_idx: int, nbr_cls: int, floor: float):
    mask = sys.masks[nbr_cls]
    best, best_deg = None, -1
    for v in sys.classes[cls_idx]:
        deg = (sys.graph.adj[v] & mask).bit_count()
        if deg > best_deg:
            best, best_deg = v, deg
    return (best, best_deg >= floor - 1e-12)


def _count_cycles_capped(g: SimpleGraph, p: int, budget: int) -> tuple[Optional[int], bool]:
    if p > g.n:
        return 0, True
    try:
        return _count_cycles_backtrack(g, p, budget), True
    except BudgetExceededError:
        return None, False


def verify_counting_lemma(
    lemma: str,
    seed: int,
    spec: Optional[GridSpec] = None,
) -> LemmaVerificationReport:
    """Run one lemma's bound against exact counts over a seeded instance grid.

    Every row records the measured defect, the bound at measured
    parameters, the exact count (possibly budget-truncated), and a verdict;
    FAIL rows are the test signal.
    """
    if lemma not in LEMMA_NAMES:
        raise PreconditionError(f"unknown lemma {lemma!r}; expected {sorted(LEMMA_NAMES)}")
    spec = spec or GridSpec.default(lemma)
    report = LemmaVerificationReport(lemma, seed)
    for family in spec.families:
        for t in spec.t_values:
            rng = random.Random((seed, lemma, family, t).__repr__())
            for _ in range(spec.instances_per_cell):
                sizes = tuple(
                    rng.randint(spec.size_lo, spec.size_hi) for _ in range(t)
                )
                sys = _make_instance(family, sizes, rng)
                report.rows.append(_verify_one(lemma, sys, family, rng, spec))
    return report


def _verify_one(
    lemma: str, sys: PairSystem, family: str, rng: random.Random, spec: GridSpec
) -> LemmaRow:
    t = sys.t
    eps_hat, d_min = _measure(sys)
    n = sys.min_class_size()
    params = RegimeParams(eps=eps_hat, d=d_min, t=t)
    exact, complete, note = None, True, ""
    if lemma == "countcycle1":
        length = rng.choice((2 * t + 7, 2 * t + 9))  # odd, as the bound needs
        ev = ring_cycle_bound(params, n, length)
        met = ev.met
        exact, complete = _count_cycles_capped(sys.graph, length, spec.count_budget)
        if not met:
            verdict = "vacuous"
            if not complete:
                note = "count budget-truncated"
        elif exact is not None and complete:
            verdict = "pass" if exact >= ev.value else "FAIL"
        elif ev.value <= 0.0:
            verdict = "pass"  # a count is always >= 0
            note = "count budget-truncated; bound is zero"
        else:
            verdict = "undecided-budget"
    else:
        w0, ok = _qualifying_vertex(sys, 0, 1 % t, (d_min - eps_hat) * len(sys.classes[1 % t]))
        if lemma == "countpath2-p1":
            length = rng.randint(2, 5)
            ev = transversal_path_bound_fixed_start(params, n, length)
            end, why = None, "no qualifying start vertex"
        else:
            length = t * rng.choice((2, 3)) if t == 2 else 2 * t
            ev = transversal_path_bound_fixed_ends(params, n, length)
            cls0 = [v for v in sys.classes[0] if v != w0]
            end = rng.choice(cls0) if cls0 else w0
            degp = (sys.graph.adj[end] & sys.masks[t - 1]).bit_count()
            ok = ok and degp >= (d_min - eps_hat) * len(sys.classes[t - 1]) - 1e-12
            why = "no qualifying end vertices"
        met = ok and ev.met
        if not ok:
            verdict, note = "vacuous", why
        else:
            budget = spec.count_budget * 10
            if end is None:
                exact = count_transversal_paths(sys, w0, length, budget=budget)
            else:
                exact = count_transversal_paths_between(sys, w0, end, length, budget=budget)
            verdict = ("pass" if exact >= ev.value else "FAIL") if met else "vacuous"
    return LemmaRow(
        family, t, tuple(map(len, sys.classes)), eps_hat, d_min, n, length,
        ev.value, met, exact, complete, verdict, note,
    )
