"""Acceptance criteria, one test per criterion, run with `pytest -s -v`.

Each test prints one line: [ACCEPTANCE] criterion N: PASS - detail (time).
Criterion 3 note: the target list for paths is taken from the closed form
k - 1 + floor(k/2), which gives r(P3) = 3 (P3 is the two-edge star, listed
at 3 in the same criterion).
"""

import itertools
import math
import operator
import random
import time
from math import comb, factorial

import numpy as np

from ramseykit.battery import run_battery
from ramseykit.errors import DecisionTreeExhaustedError, PreconditionError
from ramseykit.extremal import _two_matching_core, case2_lower_bound, chi
from ramseykit.graphs import (
    PatternGraph,
    SimpleGraph,
    TwoColoring,
    count_copies,
    mono_counts,
    pair_index,
)
from ramseykit.graphs import _count_cycles_backtrack
from ramseykit.regular import (
    GridSpec,
    RegimeParams,
    check_regularity,
    degree_exception_counts,
    density,
    regularity_defect,
    ring_cycle_bound,
    slice_params,
    verify_counting_lemma,
)
from ramseykit.search import find_zero_coloring, multiplicity, ramsey_number, threshold_multiplicity
from ramseykit.stability import main2_classify

from .helpers import definitional_regularity, max_matching_at_least

P = PatternGraph


def report(num: int, detail: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    print(f"\n[ACCEPTANCE] criterion {num}: PASS - {detail} ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_extremal_coloring_counts():
    t0 = time.monotonic()
    assert mono_counts(chi(5, 4), P.cycle(5)) == (0, factorial(4) // 2) == (0, 12)
    assert mono_counts(chi(7, 6), P.cycle(7)) == (0, factorial(6) // 2) == (0, 360)
    # second, independent counting route
    assert _count_cycles_backtrack(chi(5, 4).blue_graph(), 5) == 12
    assert _count_cycles_backtrack(chi(7, 6).blue_graph(), 7) == 360
    assert _count_cycles_backtrack(chi(7, 6).red_graph(), 7) == 0
    report(1, "chi(5,4) -> (0,12) C5 and chi(7,6) -> (0,360) C7, two counters", t0, 5)


def test_criterion_02_lower_bound_constructions():
    t0 = time.monotonic()
    assert mono_counts(chi(4, 4), P.cycle(5)) == (0, 0)
    assert mono_counts(chi(6, 6), P.cycle(7)) == (0, 0)
    report(2, "chi(4,4) and chi(6,6) have no monochromatic C5 / C7", t0, 1)


def test_criterion_03_ramsey_numbers():
    t0 = time.monotonic()
    targets = [
        (P.path(3), 3),  # formula value; P3 = K_{1,2} (listed at 3 below)
        (P.path(4), 5),
        (P.path(5), 6),
        (P.path(6), 8),
        (P.complete(3), 6),
        (P.star(2), 3),
        (P.star(3), 6),
    ]
    for h, want in targets:
        rn = ramsey_number(h, n_max=10)
        assert rn.exact, h.label()
        assert rn.value == want, (h.label(), rn.value, want)
        assert sum(mono_counts(rn.witness_below, h)) == 0
    assert ramsey_number(P.path(6), 10).value == 6 - 1 + 6 // 2
    report(3, "r(P3..P6) = 3,5,6,8; r(K3) = 6; r(K_{1,2}) = 3; r(K_{1,3}) = 6", t0, 600)


def test_criterion_04_threshold_multiplicities():
    t0 = time.monotonic()
    assert threshold_multiplicity(P.complete(2)).value == 1
    assert threshold_multiplicity(P.star(2)).value == 1
    s3 = threshold_multiplicity(P.star(3))
    assert (s3.n, s3.value) == (6, 6)
    k3 = threshold_multiplicity(P.complete(3))
    assert (k3.n, k3.value) == (6, 2)
    for rep in (s3, k3):
        assert sum(mono_counts(rep.witness, rep.pattern)) == rep.value
    report(4, "m(K2) = 1, m(K_{1,2}) = 1, m(K_{1,3}) = 6, m(K3) = 2", t0, 120)


def test_criterion_05_asymptotic_regime_not_desk_reproducible():
    t0 = time.monotonic()
    # the headline parameter regime: eps = 1e-30 forces n >= eps^-2 = 1e60
    params = RegimeParams(eps=1e-30, d=0.5, t=3)
    ev = ring_cycle_bound(params, n=10_000, cycle_len=13)
    assert not ev.met
    assert dict(ev.hypotheses)["n >= t eps^-2"] is False
    # and the stability dichotomy cap 300 sqrt(alpha) binds nothing concrete
    rng = random.Random(0)
    c = TwoColoring(12, rng.randrange(1 << comb(12, 2)))
    res = main2_classify(c, [list(range(i, 12, 4)) for i in range(4)], params)
    assert res.case == "inconclusive"
    report(
        5,
        "eps = 1e-30 regime is vacuous at desk scale; substituted by criteria 6-10",
        t0,
        60,
    )


def test_criterion_06_counting_lemma_grid():
    t0 = time.monotonic()
    tallies = {}
    for lemma in ("countpath2-p1", "countpath2-p2", "countcycle1"):
        rep = verify_counting_lemma(lemma, seed=2026)
        tally = rep.tally()
        tallies[lemma] = tally
        assert tally.get("FAIL", 0) == 0, (lemma, tally)
        assert tally.get("undecided-budget", 0) == 0, (lemma, tally)
        assert tally.get("pass", 0) > 0, (lemma, tally)
    report(6, f"zero FAIL rows across the default grids: {tallies}", t0, 900)


def _bipartite_shapes(ns: int, nt: int, chunk: int = 1 << 16):
    """Every bipartite row-mask graph of shape ns x nt, in chunks of codes.

    Code c has ns rows of nt bits, row 0 the most significant: rows[i] =
    (c >> nt*(ns-1-i)) & (2^nt - 1). Yields (graphs, rows, union, star):
    the codes' rows as tuples, in code order, and in numpy their rows, the
    OR of their rows and the Koenig oracle, true when the edges form a star
    (at most one nonzero row, or a union of one bit), that is when no two
    edges are disjoint.
    """
    tuples = itertools.product(range(1 << nt), repeat=ns)
    shifts = nt * np.arange(ns)[::-1]
    for lo in range(0, 1 << (ns * nt), chunk):
        graphs = list(itertools.islice(tuples, chunk))
        rows = np.arange(lo, lo + len(graphs))[:, None] >> shifts & ((1 << nt) - 1)
        nz = np.count_nonzero(rows, axis=1)
        union = np.bitwise_or.reduce(rows, axis=1)
        yield graphs, rows, union, (nz <= 1) | (union & (union - 1) == 0)


_VERDICTS = {"none": 0, "remove_s": 1, "remove_t": 2, "match": 3}


def _verdict_indices(verdicts, picked, width):
    """The indices (verdict[1]) of the picked verdicts, one row of width each."""
    indices = map(operator.itemgetter(1), itertools.compress(verdicts, picked.tolist()))
    if width > 1:
        indices = itertools.chain.from_iterable(indices)
    return np.fromiter(indices, dtype=np.int64).reshape(-1, width)


def test_criterion_07_claim_verifiers():
    t0 = time.monotonic()
    for claim in ("common-neighbor", "bridged-cliques", "alternating", "two-matching"):
        rep = run_battery(claim, 200, seed=2026)
        assert rep.all_passed, (claim, rep.failures[:3])
    # Koenig characterization (max matching <= 1 iff the edges form a star)
    # cross-validated against augmenting-path matching, exhaustively to 4x4
    for ns in range(1, 5):
        for nt in range(1, 5):
            for graphs, rows, _, star in _bipartite_shapes(ns, nt):
                assert rows.tolist() == list(map(list, graphs))
                for r, is_star in zip(graphs, star.tolist()):
                    assert is_star != max_matching_at_least(list(r), 2)
    # exhaustive agreement of the reduction with the Koenig oracle, all
    # bipartite graphs with |S|, |T| <= 5: every code goes through
    # _two_matching_core, and its verdicts are checked against the oracle
    # in numpy
    checked = 0
    for ns in range(1, 6):
        for nt in range(1, 6):
            for graphs, rows, union, star in _bipartite_shapes(ns, nt):
                verdicts = list(map(_two_matching_core, graphs))
                kind = np.array([_VERDICTS[v[0]] for v in verdicts])
                match = kind == _VERDICTS["match"]
                i1, j1, i2, j2 = _verdict_indices(verdicts, match, 4).T
                assert not star[match].any()
                assert (i1 != i2).all() and (j1 != j2).all()
                r = rows[match]
                at = np.arange(len(r))
                assert (r[at, i1] >> j1 & 1).all() and (r[at, i2] >> j2 & 1).all()
                none = kind == _VERDICTS["none"]
                assert (star & (union == 0))[none].all()
                # remove_s: every other row is empty
                remove_s = kind == _VERDICTS["remove_s"]
                assert star[remove_s].all()
                i = _verdict_indices(verdicts, remove_s, 1)
                assert not np.where(np.arange(ns) == i, 0, rows[remove_s]).any()
                # remove_t: every row lies inside the removed column's bit
                remove_t = kind == _VERDICTS["remove_t"]
                assert star[remove_t].all()
                bit = 1 << _verdict_indices(verdicts, remove_t, 1)
                assert not (rows[remove_t] & ~bit).any()
                checked += len(rows)
    assert checked == sum(1 << ns * nt for ns in range(1, 6) for nt in range(1, 6))
    report(7, f"four batteries 200/200; exhaustive two-matching on {checked} graphs", t0, 600)


def _perturb(base: TwoColoring, rng: random.Random, flips: int) -> TwoColoring:
    mask = base.red_mask
    pairs = set()
    while len(pairs) < flips:
        u, v = rng.sample(range(base.n), 2)
        pairs.add((min(u, v), max(u, v)))
    for i, j in pairs:
        mask ^= 1 << pair_index(i, j, base.n)
    return TwoColoring(base.n, mask)


def test_criterion_08_case2_certificates_sound():
    t0 = time.monotonic()
    tally = {}
    for k, a, lam in ((5, 5, 0.4), (7, 7, 0.25)):
        base = chi(a, a - 1).swapped()  # red inside the parts
        rng = random.Random(1000 + k)
        certified = exhausted = rejected = 0
        for _ in range(50):
            c = _perturb(base, rng, rng.randint(1, 2))
            try:
                cert = case2_lower_bound(c, k, range(a), range(a, 2 * a - 1), lam)
            except DecisionTreeExhaustedError:
                exhausted += 1
                continue
            except PreconditionError:
                rejected += 1
                continue
            certified += 1
            exact = sum(mono_counts(c, P.cycle(k)))
            assert cert.bound <= exact, (k, cert.claim_used, cert.bound, exact)
        assert certified >= 10, (k, certified, exhausted, rejected)
        tally[f"k={k}"] = {
            "certified": certified, "exhausted": exhausted, "rejected": rejected,
        }
    report(8, f"every emitted certificate bound <= exact count: {tally}", t0, 600)


def test_criterion_09_invariant_suite():
    t0 = time.monotonic()
    rng = random.Random(99)
    # color-swap and permutation invariance of all counts
    patterns = [P.path(4), P.cycle(4), P.cycle(5), P.star(3), P.complete(3)]
    for _ in range(30):
        n = rng.randint(4, 8)
        c = TwoColoring(n, rng.randrange(1 << comb(n, 2)))
        perm = list(range(n))
        rng.shuffle(perm)
        for h in patterns:
            red, blue = mono_counts(c, h)
            assert mono_counts(c.swapped(), h) == (blue, red)
            assert mono_counts(c.permuted(perm), h) == (red, blue)
    # zero-threshold equivalence on the criterion-3 family
    for h, r in [(P.path(3), 3), (P.path(4), 5), (P.path(5), 6), (P.path(6), 8),
                 (P.complete(3), 6), (P.star(2), 3), (P.star(3), 6)]:
        for n in range(2, r + 1):
            w, _, settled = find_zero_coloring(h, n)
            assert settled
            assert (w is not None) == (n < r), (h.label(), n)
    # multiplicity monotone in n
    for h in (P.complete(3), P.path(4), P.star(3)):
        values = [multiplicity(h, n).value for n in range(2, 8)]
        assert values == sorted(values), (h.label(), values)
    # complete-graph closed forms up to 12 vertices
    for m in range(3, 13):
        km = SimpleGraph.complete(m)
        for k in range(3, m + 1):
            assert count_copies(km, P.cycle(k)) == comb(m, k) * factorial(k - 1) // 2
            assert count_copies(km, P.path(k)) == comb(m, k) * factorial(k) // 2
    # exact regularity checker vs the definitional quantifier, exhaustively
    # over all bipartite graphs with |X| = |Y| = 4
    for code in range(1 << 16):
        g = SimpleGraph.from_edges(
            8, [(i, 4 + j) for i in range(4) for j in range(4) if code >> (4 * i + j) & 1]
        )
        for eps in (0.2, 0.5):
            verdict = check_regularity(g, range(4), range(4, 8), eps).verdict
            direct = definitional_regularity(g, range(4), range(4, 8), eps)
            assert (verdict == "regular") == (direct is None), (code, eps)
    report(9, "swap/relabel invariance, threshold iff, monotonicity, closed forms, "
              "checker = definition on 65536 graphs", t0, 600)


def test_criterion_10_regular_pair_lemma():
    t0 = time.monotonic()
    # slicing formula on a 20-point grid
    pts = [(0.01 + 0.045 * i, 0.05 + 0.0475 * i) for i in range(20)]
    for eps, alpha in pts:
        assert slice_params(eps, alpha) == max(eps / alpha, 2 * eps)
    # degree exception counts on every exactly-certified regular pair of a
    # regenerated criterion-6 style corpus
    from ramseykit.regular import FAMILIES, _make_instance

    rng = random.Random(5)
    pairs_checked = 0

    base = GridSpec("countpath2-p1", (2, 3), 4, 8, instances_per_cell=3)
    for family in FAMILIES:
        for t in base.t_values:
            gen = random.Random((2026, "countpath2-p1", family, t).__repr__())
            for _ in range(base.instances_per_cell):
                sizes = tuple(gen.randint(base.size_lo, base.size_hi) for _ in range(t))
                sys = _make_instance(family, sizes, gen)
                for i, j in sys.consecutive_pairs():
                    xs, ys = sys.classes[i], sys.classes[j]
                    eps_hat = regularity_defect(sys.graph, xs, ys)
                    eps = min(0.95, max(eps_hat + 1e-9, 0.05))
                    if check_regularity(sys.graph, xs, ys, eps).verdict != "regular":
                        continue
                    d = density(sys.graph, xs, ys)
                    for _ in range(6):
                        m = rng.randint(max(1, math.ceil(eps * len(ys))), len(ys))
                        y_sub = rng.sample(list(ys), m)
                        hi, lo = degree_exception_counts(sys.graph, xs, y_sub, d, eps)
                        assert hi < eps * len(xs), (family, t, sizes)
                        assert lo < eps * len(xs), (family, t, sizes)
                        pairs_checked += 1
    assert pairs_checked > 50
    report(10, f"exception bounds on {pairs_checked} certified subset draws; "
               "slicing formula on 20 grid points", t0, 60)
