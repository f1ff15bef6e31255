"""Reduced graphs over a vertex partition, the cycles-or-bipartition
dichotomy checker, and the case-1/case-2 classifier for concrete colorings.

Partition discovery is deliberately an input: no desk-scale construction
certifies a regularity partition, so callers supply one (random or
structural) and every judgment about it is re-verified on the actual
coloring. When the asymptotic parameter ranges are violated the checkers
flag it and keep going; when neither structure can be certified they
return an inconclusive outcome with diagnostics instead of forcing the
dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import PreconditionError
from .extremal import EXACT_PARTITION_CAP, ExtremalAssessment, extremal_parameter
from .graphs import (
    SimpleGraph, TwoColoring, _bits, _find_cycle_of_length, cycle_spectrum, vertex_set
)
from .regular import EXACT_REGULARITY_CAP, RegimeParams, check_regularity, density

REDUCED_DENSITY_FACTOR = 12.0  # reduced edge color floor: d = 12 sqrt(eps)
CASE1_DENSITY_FACTOR = 11.0  # witness pairs are asserted at 11 sqrt(eps)
NS_U0_FACTOR = 2000.0
NS_WINDOW_FACTOR = 10.0


@dataclass(frozen=True)
class ReducedGraph:
    """Colored reduced graph of a coloring over a vertex partition."""

    parts: tuple[tuple[int, ...], ...]
    red_edges: frozenset[tuple[int, int]]
    blue_edges: frozenset[tuple[int, int]]
    irregular_pairs: frozenset[tuple[int, int]]
    unproven_pairs: frozenset[tuple[int, int]]  # randomized mode, no witness found
    eps: float
    d: float
    equitable: bool

    @property
    def M(self) -> int:
        return len(self.parts)

    def color_subgraph(self, color: str) -> SimpleGraph:
        edges = self.red_edges if color == "red" else self.blue_edges
        return SimpleGraph.from_edges(self.M, edges)

    def as_dict(self) -> dict:
        return {
            "M": self.M,
            "parts": [list(p) for p in self.parts],
            "red_edges": sorted(map(list, self.red_edges)),
            "blue_edges": sorted(map(list, self.blue_edges)),
            "irregular_pairs": sorted(map(list, self.irregular_pairs)),
            "unproven_pairs": sorted(map(list, self.unproven_pairs)),
            "eps": self.eps,
            "d": self.d,
            "equitable": self.equitable,
        }


def disjoint_parts(parts: Sequence[Iterable[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """Each part through graphs.vertex_set, sorted and de-duplicated.

    An empty partition, an empty part, two parts that meet or parts that
    leave a vertex of 0..n-1 out raise PreconditionError.
    """
    pts, seen = [], 0
    for i, part in enumerate(parts):
        vs, mask = vertex_set(part, n, f"part {i}")
        if not mask:
            raise PreconditionError(f"part {i} is empty")
        if mask & seen:
            raise PreconditionError(f"part {i} meets an earlier part")
        pts.append(vs)
        seen |= mask
    if not pts:
        raise PreconditionError("the partition needs at least one part")
    missed = [v for v in range(n) if not seen >> v & 1]
    if missed:
        raise PreconditionError(f"the parts leave out vertices {missed}")
    return tuple(pts)


def build_reduced(
    c: TwoColoring,
    parts: Sequence[Iterable[int]],
    p: RegimeParams,
    reg_mode: str = "exact",
    seed: Optional[int] = None,
) -> ReducedGraph:
    """Classify part pairs as red/blue/irregular at d = 12 sqrt(eps).

    A pair is colored red when its red density reaches d, blue likewise (a
    pair may carry both when d < 1/2); pairs failing the regularity check
    are left uncolored. Red- and blue-regularity coincide inside a colored
    K_n, so regularity is checked once, on the red bipartite graph. With
    randomized checking, pairs with no violation witness are treated as
    regular and reported unproven. The parts go through disjoint_parts.
    """
    pts = disjoint_parts(parts, c.n)
    sizes = sorted(len(x) for x in pts)
    equitable = sizes[-1] - sizes[0] <= 1
    # construction rule d = 12 sqrt(eps); an explicit floor in p overrides
    # (desk-scale eps makes the rule exceed 1 and color nothing)
    d = p.d if p.d > 0 else REDUCED_DENSITY_FACTOR * math.sqrt(p.eps)
    gr = c.red_graph()
    red, blue, irregular, unproven = set(), set(), set(), set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if reg_mode == "exact" and (len(pts[i]) < 2 or len(pts[j]) < 2):
                raise PreconditionError(
                    f"exact regularity on parts of size < 2 (pair {i},{j})"
                )
            res = check_regularity(
                gr, pts[i], pts[j], p.eps, mode=reg_mode,
                seed=None if seed is None else seed + 31 * i + j,
            )
            if res.verdict == "irregular":
                irregular.add((i, j))
                continue
            if res.verdict == "unknown":
                unproven.add((i, j))
            dr = density(gr, pts[i], pts[j])
            if dr >= d:
                red.add((i, j))
            if 1.0 - dr >= d:
                blue.add((i, j))
    return ReducedGraph(
        pts, frozenset(red), frozenset(blue), frozenset(irregular),
        frozenset(unproven), p.eps, d, equitable,
    )


# ---------------------------------------------------------------------------
# Cycles-or-bipartition dichotomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyOutcome:
    variant: str  # "cycles" | "partition" | "inconclusive"
    spectrum: Optional[dict[int, tuple[int, ...]]] = None
    u0: Optional[tuple[int, ...]] = None
    u1: Optional[tuple[int, ...]] = None
    u2: Optional[tuple[int, ...]] = None
    structure: Optional[str] = None  # "bipartite" | "bipartite-complement"
    flags: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"variant": self.variant, "flags": list(self.flags)}
        if self.variant == "cycles":
            out["spectrum"] = {t: list(w) for t, w in (self.spectrum or {}).items()}
        if self.variant == "partition":
            out.update(
                {
                    "U0": list(self.u0),
                    "U1": list(self.u1),
                    "U2": list(self.u2),
                    "structure": self.structure,
                }
            )
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


def _achievable_split(items: list[tuple[int, int]], lo: float, hi: float, total: int):
    """Pick one of (a, b) per item so the chosen sum s has lo < s <= total - s
    and both s, total - s inside (lo, hi); returns the choices or None.

    Desk-scale window parameters can degenerate to (-inf, inf); empty sides
    are still rejected (the asymptotic window forbids them anyway).
    """
    reach = [1]
    for a, b in items:
        reach.append((reach[-1] << a) | (reach[-1] << b))
    final = reach[-1]
    for s in range(1, total // 2 + 1):
        r = total - s
        if final >> s & 1 and lo < s and lo < r and s < hi and r < hi:
            choices = []
            target = s
            for idx in range(len(items) - 1, -1, -1):
                a, b = items[idx]
                if target - a >= 0 and reach[idx] >> (target - a) & 1:
                    choices.append(0)
                    target -= a
                else:
                    choices.append(1)
                    target -= b
            choices.reverse()
            return choices
    return None


def ns_check(g: SimpleGraph, alpha: float, beta: float) -> DichotomyOutcome:
    """Either a full cycle spectrum up to ceil((1/2+alpha)n) or a
    near-balanced bipartition whose cross (or interior) is empty.

    Requires e(G) > (1/4 - beta) n^2. Desk-scale alpha/beta outside the
    stated asymptotic ranges are flagged, not rejected. The bipartition
    search is exact at every n. U0 grows one vertex at a time, a
    lowest-degree vertex of G - U0; for each U0 the components of G - U0
    (SimpleGraph.colour_classes) give the side choices. The bipartite
    variant, tried first, needs every component 2-coloured and puts its
    two classes on opposite sides; the complement variant puts each whole
    component on one side. A subset-sum scan finds a split inside the
    size window.
    """
    n = g.n
    if n == 0:
        raise PreconditionError("empty graph")
    if g.num_edges() <= (0.25 - beta) * n * n:
        raise PreconditionError(
            f"edge count {g.num_edges()} <= (1/4 - beta) n^2 = {(0.25-beta)*n*n:.2f}"
        )
    flags = []
    if not 0 < alpha < 5e-6:
        flags.append("alpha outside (0, 5e-6)")
    if not 0 <= beta <= alpha / 25:
        flags.append("beta outside [0, alpha/25]")
    if n < 1 / alpha:
        flags.append("n below alpha^-1")
    top = math.ceil((0.5 + alpha) * n)
    diagnostics: dict = {"cycle_target": top}
    if top <= n:
        spectrum = cycle_spectrum(g, top)
        missing = [t for t in range(3, top + 1) if t not in spectrum]
        if not missing:
            return DichotomyOutcome("cycles", spectrum=spectrum, flags=tuple(flags))
        diagnostics["missing_cycle_lengths"] = missing
    else:
        diagnostics["missing_cycle_lengths"] = f"target {top} exceeds n"

    window = NS_WINDOW_FACTOR * math.sqrt(alpha + beta)
    lo = (0.5 - window) * n
    hi = (0.5 + window) * n
    u0_cap = min(n - 2, int(NS_U0_FACTOR * alpha * n))
    u0 = 0
    for _ in range(u0_cap + 1):
        rest = ((1 << n) - 1) & ~u0
        classes = g.colour_classes(rest)
        variants = []
        if all(proper for _, _, proper in classes):
            variants.append(("bipartite", [(even, odd) for even, odd, _ in classes]))
        variants.append(("bipartite-complement", [(even | odd, 0) for even, odd, _ in classes]))
        for structure, sides in variants:
            items = [(a.bit_count(), b.bit_count()) for a, b in sides]
            choices = _achievable_split(items, lo, hi, rest.bit_count())
            if choices is None:
                continue
            u1 = u2 = 0
            for (a, b), pick in zip(sides, choices):
                u1, u2 = (u1 | a, u2 | b) if pick == 0 else (u1 | b, u2 | a)
            if u1.bit_count() > u2.bit_count():
                u1, u2 = u2, u1
            out = DichotomyOutcome(
                "partition", u0=tuple(_bits(u0)), u1=tuple(_bits(u1)), u2=tuple(_bits(u2)),
                structure=structure, flags=tuple(flags), diagnostics=diagnostics,
            )
            _reverify_partition(out, g, alpha, beta, n)
            return out
        u0 |= 1 << min(_bits(rest), key=lambda v: ((g.adj[v] & rest).bit_count(), v))
    diagnostics["u0_sizes_tried"] = u0_cap + 1
    return DichotomyOutcome("inconclusive", flags=tuple(flags), diagnostics=diagnostics)


def _reverify_partition(out: DichotomyOutcome, g: SimpleGraph, alpha, beta, n) -> None:
    window = NS_WINDOW_FACTOR * math.sqrt(alpha + beta)
    assert len(out.u0) < NS_U0_FACTOR * alpha * n + 1e-9, "U0 bound violated"
    s1, s2 = len(out.u1), len(out.u2)
    assert s1 <= s2, "U1 must be the smaller side"
    assert (0.5 - window) * n < s1 and s2 < (0.5 + window) * n, "size window violated"
    m1, m2 = (sum(1 << v for v in side) for side in (out.u1, out.u2))
    if out.structure == "bipartite":
        assert not any(g.adj[v] & m for m in (m1, m2) for v in _bits(m)), "edge inside a side"
    else:
        assert not any(g.adj[v] & m2 for v in _bits(m1)), "edge across the split"


# ---------------------------------------------------------------------------
# Case-1 / case-2 classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationOutcome:
    case: str  # "case1" | "case2" | "inconclusive"
    t: Optional[int] = None
    color: Optional[str] = None
    ring_parts: Optional[tuple[int, ...]] = None  # part indices in ring order
    assessment: Optional[ExtremalAssessment] = None
    flags: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"case": self.case, "flags": list(self.flags)}
        if self.t is not None:
            out["t"] = self.t
        if self.case == "case1":
            out["color"] = self.color
            out["ring_parts"] = list(self.ring_parts)
        if self.case == "case2" and self.assessment is not None:
            out["lambda_star"] = self.assessment.lambda_star
            out["partition"] = [list(s) for s in self.assessment.partition]
            out["within_color"] = self.assessment.color_role
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


def main2_classify(
    c: TwoColoring,
    parts: Sequence[Iterable[int]],
    p: RegimeParams,
    reg_mode: str = "exact",
    seed: Optional[int] = None,
) -> ClassificationOutcome:
    """Classify a coloring as ring-structured (case 1) or near-extremal
    (case 2) relative to the supplied partition.

    Case 1 holds when the reduced graph has a monochromatic odd cycle of
    the window length t; the emitted ring is re-verified pairwise
    (regularity at eps, color density at 11 sqrt(eps), the build threshold
    12 sqrt(eps) being what the construction used); a ring pair with a part
    above EXACT_REGULARITY_CAP, which only randomized checking lets through,
    gets no exact re-check and is named in the flags. Case 2 compares the
    exact extremality parameter (seeded local search above
    EXACT_PARTITION_CAP vertices) against p.lam = 300 sqrt(alpha). Neither
    structure certifiable means an honest inconclusive. The window and the
    parameter chain need eps > 0.
    """
    if not p.eps > 0:
        raise PreconditionError(f"classification needs eps > 0, got {p.eps}")
    reduced = build_reduced(c, parts, p, reg_mode=reg_mode, seed=seed)
    M = reduced.M
    alpha = p.alpha
    flags = []
    if not reduced.equitable:
        flags.append("partition not equitable within 1")
    if M < 2 / alpha:
        flags.append("M below 2/alpha")
    hi = math.floor((0.5 + alpha) * M + 1e-12)
    t = hi if hi % 2 == 1 else hi - 1
    diagnostics: dict = {"M": M, "alpha": alpha, "window_t": t}
    if t < 3 or t <= (0.5 + alpha) * M - 2:
        diagnostics["case1"] = f"no odd cycle length >= 3 in window (t={t})"
        t_valid = False
    else:
        t_valid = True
    if t_valid:
        floor_density = CASE1_DENSITY_FACTOR * math.sqrt(p.eps)
        for color in ("red", "blue"):
            hcol = reduced.color_subgraph(color)
            ring = _find_cycle_of_length(hcol, t)
            if ring is None:
                continue
            ok = True
            unverified = []
            g_color = c.red_graph() if color == "red" else c.blue_graph()
            for a, b in zip(ring, ring[1:] + ring[:1]):
                pa, pb = reduced.parts[a], reduced.parts[b]
                if density(g_color, pa, pb) < floor_density - 1e-12:
                    ok = False
                    break
                if max(len(pa), len(pb)) > EXACT_REGULARITY_CAP:
                    unverified.append(
                        f"ring pair ({a},{b}) not verified regular: "
                        f"a part exceeds the exact cap of {EXACT_REGULARITY_CAP}"
                    )
                elif check_regularity(g_color, pa, pb, p.eps, mode="exact").verdict == "irregular":
                    ok = False
                    break
            if ok:
                return ClassificationOutcome(
                    "case1", t=t, color=color, ring_parts=ring,
                    flags=tuple(flags + unverified), diagnostics=diagnostics,
                )
        diagnostics["case1"] = "no verified monochromatic ring of length t"
    mode = "exact" if c.n <= EXACT_PARTITION_CAP else "local-search"
    assessment = extremal_parameter(c, mode=mode, seed=seed if mode == "local-search" else None)
    diagnostics["lambda_star"] = assessment.lambda_star
    diagnostics["lambda_cap"] = p.lam
    if assessment.lambda_star <= p.lam:
        return ClassificationOutcome(
            "case2", t=t if t_valid else None, assessment=assessment,
            flags=tuple(flags), diagnostics=diagnostics,
        )
    return ClassificationOutcome(
        "inconclusive", t=t if t_valid else None, flags=tuple(flags), diagnostics=diagnostics
    )
