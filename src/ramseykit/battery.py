"""Seeded structured-instance batteries for the claim verifiers.

Each generator builds a graph satisfying one claim's hypotheses (plus
harmless noise edges; extra edges only add cycles), picks an admissible
cycle length, and the runner checks exact-count >= floored-bound. The
two-matching battery checks the reduction against an augmenting-path
maximum-matching oracle.

A floored bound of 0 holds for any count, so the report counts those
instances apart (zero_threshold). The bridged-cliques and alternating
generators draw l in {7, 9} only, where both bounds are below 1 (0 and
0.050, 0.135 and 0.293): every instance of those two batteries has
threshold 0, so they check only that the exact counts complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import PreconditionError, TwoMatchingExistsError
from .extremal import (
    fewest_common_neighbors,
    two_matching_reduction,
    verify_claim_alternating,
    verify_claim_bridged_cliques,
    verify_claim_common_neighbor,
)
from .graphs import SimpleGraph, vertex_set

CLAIMS = ("common-neighbor", "bridged-cliques", "alternating", "two-matching")


@dataclass
class BatteryReport:
    claim: str
    seed: int
    instances: int
    checked: int = 0
    zero_threshold: int = 0  # instances whose floored bound is 0, so pass whatever the count
    failures: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return not self.failures and self.checked == self.instances

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "seed": self.seed,
            "instances": self.instances,
            "checked": self.checked,
            "zero_threshold": self.zero_threshold,
            "failures": self.failures,
            "all_passed": self.all_passed,
        }


def _noise_edges(rng, pairs, prob):
    return [e for e in pairs if rng.random() < prob]


def _gen_common_neighbor(rng: random.Random):
    ns = rng.randint(3, 6)
    nt = rng.randint(3, 6)
    n = ns + nt
    s_vs, t_vs = list(range(ns)), list(range(ns, n))
    edges = set()
    drop = rng.choice((0.0, 0.1, 0.2))
    for u in s_vs:
        for v in t_vs:
            if rng.random() >= drop:
                edges.add((u, v))
    inner = [(u, v) for i, u in enumerate(s_vs) for v in s_vs[i + 1 :]]
    rng.shuffle(inner)
    for e in inner[: rng.randint(1, 3)]:
        edges.add(e)
    f = SimpleGraph.from_edges(n, edges)
    s = fewest_common_neighbors(f, s_vs, vertex_set(t_vs, n, "T")[1])[0]
    choices = [l for l in (3, 5, 7, 9) if l <= min(2 * s + 1, 2 * ns - 1)]
    if not choices:
        return None
    return f, s_vs, t_vs, rng.choice(choices)


def _gen_bridged(rng: random.Random):
    ns = rng.randint(4, 6)
    nt = rng.randint(4, 6)
    mids = rng.randint(0, 2)
    n = ns + nt + mids
    s_vs = list(range(ns))
    t_vs = list(range(ns, ns + nt))
    mid_vs = list(range(ns + nt, n))
    edges = set()
    for part in (s_vs, t_vs):
        for i, u in enumerate(part):
            for v in part[i + 1 :]:
                edges.add((u, v))
    paths = []
    used: set[int] = set()
    want = 2
    candidates_direct = [(a, b) for a in s_vs for b in t_vs]
    rng.shuffle(candidates_direct)
    for m in mid_vs:
        a = rng.choice(s_vs)
        b = rng.choice(t_vs)
        if a in used or b in used:
            continue
        paths.append((a, m, b))
        used.update((a, m, b))
        if len(paths) == want:
            break
    for a, b in candidates_direct:
        if len(paths) == want:
            break
        if a in used or b in used:
            continue
        paths.append((a, b))
        used.update((a, b))
    if len(paths) < want:
        return None
    for p in paths:
        for u, v in zip(p, p[1:]):
            edges.add((u, v))
    cross_noise = _noise_edges(rng, [(a, b) for a in s_vs for b in t_vs], 0.1)
    edges.update(cross_noise)
    f = SimpleGraph.from_edges(n, edges)
    choices = [l for l in (7, 9) if l <= min(2 * ns - 1, 2 * nt - 1)]
    if not choices:
        return None
    return f, s_vs, t_vs, paths[0], paths[1], rng.choice(choices)


def _gen_alternating(rng: random.Random):
    ns = rng.randint(3, 6)
    nt = rng.randint(3, 6)
    n = ns + nt + 1
    s_vs = list(range(ns))
    t_vs = list(range(ns, ns + nt))
    m = n - 1
    w = rng.choice(s_vs)
    edges = set()
    for u in s_vs:
        if u == w:
            continue
        for v in t_vs:
            edges.add((u, v))
    w_nbrs = rng.sample(t_vs, rng.randint(1, nt))
    for v in w_nbrs:
        edges.add((w, v))
    a = rng.choice(s_vs)
    b = rng.choice(t_vs)
    edges.add((a, m))
    edges.add((m, b))
    for part in (s_vs, t_vs):  # noise inside the parts only adds cycles
        inner = [(u, v) for i, u in enumerate(part) for v in part[i + 1 :]]
        edges.update(_noise_edges(rng, inner, 0.15))
    f = SimpleGraph.from_edges(n, edges)
    choices = [l for l in (7, 9) if l <= min(2 * ns + 1, 2 * nt + 1)]
    if not choices:
        return None
    return f, s_vs, t_vs, w, (a, m, b), rng.choice(choices)


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


def run_battery(claim: str, instances: int, seed: int) -> BatteryReport:
    """Run one claim's battery; failure entries are the test signal."""
    if claim not in CLAIMS:
        raise PreconditionError(f"unknown claim {claim!r}; expected {CLAIMS}")
    rng = random.Random((claim, seed).__repr__())
    report = BatteryReport(claim, seed, instances)
    made = 0
    while made < instances:
        if claim == "common-neighbor":
            inst = _gen_common_neighbor(rng)
            if inst is None:
                continue
            f, s_vs, t_vs, l = inst
            res = verify_claim_common_neighbor(f, s_vs, t_vs, l)
        elif claim == "bridged-cliques":
            inst = _gen_bridged(rng)
            if inst is None:
                continue
            f, s_vs, t_vs, p1, p2, l = inst
            res = verify_claim_bridged_cliques(f, s_vs, t_vs, p1, p2, l)
        elif claim == "alternating":
            inst = _gen_alternating(rng)
            if inst is None:
                continue
            f, s_vs, t_vs, w, pp, l = inst
            res = verify_claim_alternating(f, s_vs, t_vs, w, pp, l)
        else:  # two-matching
            ns = rng.randint(1, 5)
            nt = rng.randint(1, 5)
            rows = [rng.randrange(1 << nt) for _ in range(ns)]
            err = check_two_matching_against_oracle(rows, ns, nt)
            made += 1
            report.checked += 1
            if err is not None:
                report.failures.append({"instance": made, "rows": rows, "error": err})
            continue
        made += 1
        report.checked += 1
        report.zero_threshold += res.threshold == 0
        if not res.passed:
            report.failures.append(
                {
                    "instance": made,
                    "threshold": res.threshold,
                    "exact": res.exact_count,
                }
            )
    return report
