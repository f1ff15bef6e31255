"""Seeded structured-instance batteries for the claim verifiers.

CLAIMS is one table: claim -> (generator, check). Each generator builds a
graph satisfying one claim's hypotheses (plus harmless noise edges; extra
edges only add cycles) and returns its verifier's arguments in order. For
the three cycle-count claims it draws a cycle length from the claim's
lengths in extremal (common_neighbor_lengths, bridged_cliques_lengths,
alternating_lengths), and the check is exact-count >= floored-bound. The
two-matching battery checks each verdict of the reduction by its own
certificate: None only when no S-T edge exists; a returned vertex only
when one does, and no S-T edge avoids it; a raised matching two
vertex-disjoint S-T edges. A one-vertex cover and a 2-matching exclude
each other, so no matching algorithm is needed to judge a verdict.

A floored bound of 0 holds for any count, so the report counts those
instances apart (zero_threshold). The bridged-cliques and alternating
generators draw l in {7, 9} only, where both bounds are below 1 (0 and
0.050, 0.135 and 0.293): every instance of those two batteries has
threshold 0, so they check only that the exact counts complete.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from .errors import PreconditionError, TwoMatchingExistsError
from .extremal import (
    alternating_lengths,
    bridged_cliques_lengths,
    common_neighbor_lengths,
    fewest_common_neighbors,
    two_matching_reduction,
    verify_claim_alternating,
    verify_claim_bridged_cliques,
    verify_claim_common_neighbor,
)
from .graphs import SimpleGraph, vertex_set


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
        return {**asdict(self), "all_passed": self.all_passed}


def _gen_common_neighbor(rng: random.Random):
    ns = rng.randint(3, 6)
    nt = rng.randint(3, 6)
    n = ns + nt
    s_vs, t_vs = list(range(ns)), list(range(ns, n))
    drop = rng.choice((0.0, 0.1, 0.2))
    edges = {(u, v) for u in s_vs for v in t_vs if rng.random() >= drop}
    inner = [(u, v) for i, u in enumerate(s_vs) for v in s_vs[i + 1 :]]
    rng.shuffle(inner)
    edges.update(inner[: rng.randint(1, 3)])
    f = SimpleGraph.from_edges(n, edges)
    s = fewest_common_neighbors(f, s_vs, vertex_set(t_vs, n, "T")[1])[0]
    choices = [l for l in (3, 5, 7, 9) if l in common_neighbor_lengths(s, ns)]
    return (f, s_vs, t_vs, rng.choice(choices)) if choices else None


def _gen_bridged(rng: random.Random):
    ns = rng.randint(4, 6)
    nt = rng.randint(4, 6)
    n = ns + nt + rng.randint(0, 2)
    s_vs, t_vs = list(range(ns)), list(range(ns, ns + nt))
    edges = {(u, v) for part in (s_vs, t_vs) for i, u in enumerate(part) for v in part[i + 1 :]}
    direct = [(a, b) for a in s_vs for b in t_vs]
    rng.shuffle(direct)
    # the first two vertex-disjoint bridges: through the middle vertices, then direct
    paths: list = []
    for p in [(rng.choice(s_vs), m, rng.choice(t_vs)) for m in range(ns + nt, n)] + direct:
        if len(paths) < 2 and not any(set(p) & set(q) for q in paths):
            paths.append(p)
    edges.update(e for p in paths for e in zip(p, p[1:]))
    edges.update((a, b) for a in s_vs for b in t_vs if rng.random() < 0.1)
    f = SimpleGraph.from_edges(n, edges)
    choices = [l for l in (7, 9) if l in bridged_cliques_lengths(ns, nt)]
    return (f, s_vs, t_vs, paths[0], paths[1], rng.choice(choices)) if choices else None


def _gen_alternating(rng: random.Random):
    ns = rng.randint(3, 6)
    nt = rng.randint(3, 6)
    m = ns + nt
    s_vs, t_vs = list(range(ns)), list(range(ns, m))
    w = rng.choice(s_vs)
    edges = {(u, v) for u in s_vs if u != w for v in t_vs}
    edges.update((w, v) for v in rng.sample(t_vs, rng.randint(1, nt)))
    a, b = rng.choice(s_vs), rng.choice(t_vs)
    edges.update(((a, m), (m, b)))
    for part in (s_vs, t_vs):  # noise inside the parts only adds cycles
        inner = [(u, v) for i, u in enumerate(part) for v in part[i + 1 :]]
        edges.update(e for e in inner if rng.random() < 0.15)
    f = SimpleGraph.from_edges(m + 1, edges)
    choices = [l for l in (7, 9) if l in alternating_lengths(ns, nt)]
    return (f, s_vs, t_vs, w, (a, m, b), rng.choice(choices)) if choices else None


def _gen_two_matching(rng: random.Random):
    ns = rng.randint(1, 5)
    nt = rng.randint(1, 5)
    rows = [rng.randrange(1 << nt) for _ in range(ns)]
    edges = [(i, ns + j) for i, r in enumerate(rows) for j in range(nt) if r >> j & 1]
    return SimpleGraph.from_edges(ns + nt, edges), list(range(ns)), list(range(ns, ns + nt))


def _counted(verify):
    """A cycle-count claim's check: (threshold is 0, failure fields or None)."""

    def check(*instance):
        res = verify(*instance)
        failure = None if res.passed else {"threshold": res.threshold, "exact": res.exact_count}
        return res.threshold == 0, failure

    return check


def _check_two_matching(f: SimpleGraph, s_vs: list[int], t_vs: list[int]):
    """The two-matching claim's check of a verdict by its certificate: (False, failure or None)."""
    edges = [(u, v) for u in s_vs for v in t_vs if f.has_edge(u, v)]
    try:
        removed = two_matching_reduction(f, s_vs, t_vs)
    except TwoMatchingExistsError as err:
        (a1, b1), (a2, b2) = err.matching
        either_way = set(edges) | {(v, u) for u, v in edges}
        disjoint = len({a1, b1, a2, b2}) == 4 and {(a1, b1), (a2, b2)} <= either_way
        error = None if disjoint else f"reduction returned an invalid 2-matching {err.matching}"
    else:
        left = [e for e in edges if removed not in e]  # every edge when removed is None
        if removed is not None and not edges:
            error = f"reduction removed {removed} from a graph with no S-T edge"
        else:
            error = f"reduction removed {removed}, which leaves edge {left[0]}" if left else None
    return False, None if error is None else {"edges": edges, "error": error}


# claim -> (instance generator, check of the verifier arguments it returns);
# a generator returns None for a draw that fits no cycle length
CLAIMS = {
    "common-neighbor": (_gen_common_neighbor, _counted(verify_claim_common_neighbor)),
    "bridged-cliques": (_gen_bridged, _counted(verify_claim_bridged_cliques)),
    "alternating": (_gen_alternating, _counted(verify_claim_alternating)),
    "two-matching": (_gen_two_matching, _check_two_matching),
}


def run_battery(claim: str, instances: int, seed: int) -> BatteryReport:
    """Run one claim's battery; failure entries are the test signal."""
    if claim not in CLAIMS:
        raise PreconditionError(f"unknown claim {claim!r}; expected one of {tuple(CLAIMS)}")
    generate, check = CLAIMS[claim]
    rng = random.Random((claim, seed).__repr__())
    report = BatteryReport(claim, seed, instances)
    while report.checked < instances:
        instance = generate(rng)
        if instance is None:
            continue
        report.checked += 1
        zero, failure = check(*instance)
        report.zero_threshold += zero
        if failure is not None:
            report.failures.append({"instance": report.checked, **failure})
    return report
