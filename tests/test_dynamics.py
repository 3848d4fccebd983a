import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import grdet as G
from grdet.dynamics import _extremal_relation, _max_clique, _min_cover, separated_count_with_greedy
from grdet.errors import DomainError, ScaleExceeded, SingularCompression

C2 = G.cyclic_product([2])
C3 = G.cyclic_product([3])
C5 = G.cyclic_product([5])
Z1 = G.integer_lattice(1)


def cyc_elem(desc, mapping):
    return G.ring_element(desc, {(k,): v for k, v in mapping.items()})


# ---------------------------------------------------------------------- shift

def test_shift_examples():
    w = G.folner_window(C3, 1)
    h = G.TorusVector(w, (Fraction(0), Fraction(1, 3), Fraction(2, 3)))
    e = G.identity(C3)
    assert G.shift(h, e) == h
    g1 = G.GroupElement(C3, (1,))
    assert G.shift(h, g1).values == (Fraction(1, 3), Fraction(2, 3), Fraction(0))


def test_torus_vector_validates_range():
    w = G.folner_window(C2, 1)
    with pytest.raises(DomainError):
        G.TorusVector(w, (Fraction(3, 2), Fraction(0)))
    with pytest.raises(DomainError):
        G.TorusVector(w, (Fraction(0),))


def test_extremal_count_float_coordinates():
    w = G.folner_window(C2, 1)
    pts = [G.TorusVector(w, (0.0, 0.0)), G.TorusVector(w, (0.5, 0.25)),
           G.TorusVector(w, (0.9, 0.85))]
    assert G.extremal_count(pts, w, math.inf, 0.05, "separated") == 3
    assert G.extremal_count(pts, w, math.inf, 0.6, "separated") == 1
    assert G.extremal_count(pts, w, math.inf, 0.6, "spanning") == 1


def test_shift_action_law_randomized():
    rng = random.Random(1)
    desc = G.cyclic_product([3, 4])
    w = G.folner_window(desc, 1)
    for _ in range(20):
        h = G.TorusVector(w, tuple(Fraction(rng.randrange(12), 12) for _ in range(len(w))))
        g1 = G.GroupElement(desc, (rng.randrange(3), rng.randrange(4)))
        g2 = G.GroupElement(desc, (rng.randrange(3), rng.randrange(4)))
        assert G.shift(G.shift(h, g1), g2) == G.shift(h, G.multiply(g1, g2))


# ---------------------------------------------------------------------- dual solutions

def brute_force_dual_count(f, desc, q):
    """All h with coordinates in (1/q)Z / Z satisfying f.h = 0, by testing."""
    w = G.folner_window(desc, 1)
    M = G.compress(f, w).to_int_rows()
    n = len(w)
    count = 0
    for h in itertools.product(range(q), repeat=n):
        ok = True
        for row in M:
            if sum(r * hv for r, hv in zip(row, h)) % q:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_solve_dual_identity():
    dual = G.solve_dual_finite(G.identity_element(C5), C5)
    assert dual.count == 1
    assert dual.vectors()[0].values == (Fraction(0),) * 5


def test_solve_dual_examples_against_brute_force():
    f2 = cyc_elem(C2, {0: 3, 1: 1})
    dual2 = G.solve_dual_finite(f2, C2)
    assert dual2.count == 8
    assert brute_force_dual_count(f2, C2, 8) == 8

    f3 = cyc_elem(C3, {0: 2, 1: 1})
    dual3 = G.solve_dual_finite(f3, C3)
    assert dual3.count == 9
    assert brute_force_dual_count(f3, C3, 9) == 9


def test_solve_dual_closed_under_shift():
    f3 = cyc_elem(C3, {0: 2, 1: 1})
    dual = G.solve_dual_finite(f3, C3)
    vecs = {h.values for h in dual.vectors()}
    for k in range(3):
        g = G.GroupElement(C3, (k,))
        assert {G.shift(h, g).values for h in dual.vectors()} == vecs


def test_solve_dual_singular():
    # 2e + 2g on Z/2 has singular compression [[2,2],[2,2]]
    f = cyc_elem(C2, {0: 2, 1: 2})
    with pytest.raises(SingularCompression):
        G.solve_dual_finite(f, C2)


def test_solve_dual_requires_integer_domain():
    f = G.ring_element(C3, {(0,): Fraction(1, 2)})
    with pytest.raises(DomainError):
        G.solve_dual_finite(f, C3)


# groups above 32 points: one enumeration axis per Smith factor d > 1, where a
# grid over every group element passed numpy's 32 axes
ABOVE_32 = {
    "x^4 + x^23 + x^25 on Z/40": ("group Zmod:40\n1 4\n1 23\n1 25\n", 3),
    "shift on Z/33": ("group Zmod:33\n1 1\n", 1),
    "shift on Z/70": ("group Zmod:70\n1 1\n", 1),
    "x y^5 + x y^7 + x y^16 on Z/2 x Z/20": ("group Zmod:2x20\n1 1 5\n1 1 7\n1 1 16\n", 9),
}


@pytest.mark.parametrize("name", sorted(ABOVE_32))
def test_duals_of_groups_above_32_points(name):
    text, count = ABOVE_32[name]
    f = G.parse_gre(text)
    desc = f.descriptor
    M = G.compress(f, G.folner_window(desc, 1)).to_int_rows()
    assert abs(G.det_exact(M)) == count
    dual = G.solve_dual_finite(f, desc)
    vecs = dual.vectors()
    assert dual.count == len({h.values for h in vecs}) == count
    # f.h = 0 on R/Z, checked in Fractions rather than modulo D
    for h in vecs:
        assert all(sum(m * v for m, v in zip(row, h.values)).denominator == 1 for row in M)
    est = G.entropy_finite_group(f, desc)
    assert (est.quotient_order, est.abs_det, est.solution_count) == (count, count, count)
    assert est.dual_enumerated and est.value == math.log(count) / desc.order()


@pytest.mark.parametrize("moduli", [[5], [6], [8], [2, 2], [2, 3], [3, 3], [2, 4], [2, 2, 2]],
                         ids=str)
def test_dual_numerators_come_in_lexicographic_order(moduli):
    # the order must not depend on the Smith form's pivots: rows sorted as tuples
    rng = random.Random(f"lex-{moduli}")
    desc = G.cyclic_product(moduli)
    elems = G.folner_window(desc, 1).elements
    checked = 0
    while checked < 4:
        terms = {g.coords: rng.randint(-2, 2) for g in rng.sample(elems, min(3, len(elems)))}
        try:
            dual = G.solve_dual_finite(G.ring_element(desc, terms), desc)
        except (SingularCompression, ScaleExceeded):
            continue
        rows = [tuple(r) for r in dual.numerators.tolist()]
        assert rows == sorted(rows) and len(rows) == dual.count
        if dual.solutions is not None:
            assert [h.values for h in dual.solutions] == sorted(h.values for h in dual.solutions)
        checked += dual.count > 1
    for text, _ in ABOVE_32.values():
        f = G.parse_gre(text)
        rows = [tuple(r) for r in G.solve_dual_finite(f, f.descriptor).numerators.tolist()]
        assert rows == sorted(rows)


# ---------------------------------------------------------------------- orbit distances

def test_orbit_distance_examples():
    w = G.folner_window(C2, 1)
    x = G.TorusVector(w, (Fraction(1, 2), Fraction(0)))
    y = G.TorusVector(w, (Fraction(0), Fraction(0)))
    assert G.orbit_distance(x, x, w, math.inf) == 0.0
    assert G.orbit_distance(x, y, w, math.inf) == 0.5
    assert G.orbit_distance(x, y, w, 2) == pytest.approx(math.sqrt(0.25 / 2), rel=1e-12)
    assert G.orbit_distance(x, y, w, 1) == pytest.approx(0.25, rel=1e-12)


def test_orbit_distance_on_subwindow():
    # aggregation over a proper subset of the coordinates
    w = G.folner_window(C3, 1)
    x = G.TorusVector(w, (Fraction(1, 2), Fraction(0), Fraction(1, 4)))
    y = G.TorusVector(w, (Fraction(0), Fraction(0), Fraction(0)))
    sub = [G.GroupElement(C3, (0,)), G.GroupElement(C3, (2,))]
    assert G.orbit_distance(x, y, sub, math.inf) == 0.5
    assert G.orbit_distance(x, y, sub, 1) == pytest.approx(0.375)
    with pytest.raises(DomainError):
        G.orbit_distance(x, y, [], 1)


def test_circle_distance_wraps():
    from grdet.dynamics import circle_distance
    assert circle_distance(Fraction(9, 10), Fraction(1, 10)) == Fraction(1, 5)
    assert circle_distance(0.95, 0.05) == pytest.approx(0.1)


# ---------------------------------------------------------------------- extremal counts

def test_extremal_count_examples():
    f3 = cyc_elem(C3, {0: 2, 1: 1})
    dual = G.solve_dual_finite(f3, C3)
    w = dual.window
    # eps above the diameter: a single point separates
    assert G.extremal_count(dual, w, math.inf, Fraction(2), "separated") == 1
    # all nine solutions are pairwise farther than 0.01 in sup metric
    assert G.extremal_count(dual, w, math.inf, Fraction(1, 100), "separated") == 9


def test_extremal_sandwich_and_p_monotonicity():
    f3 = cyc_elem(C3, {0: 2, 1: 1})
    dual = G.solve_dual_finite(f3, C3)
    w = dual.window
    for eps in (Fraction(1, 100), Fraction(1, 24), Fraction(1, 10), Fraction(1, 4)):
        sep = G.extremal_count(dual, w, math.inf, eps, "separated")
        span = G.extremal_count(dual, w, math.inf, eps, "spanning")
        sep_half = G.extremal_count(dual, w, math.inf, eps / 2, "separated")
        assert span <= sep <= G.extremal_count(dual, w, math.inf, eps / 2, "spanning") <= sep_half
        for p in (1, 2):
            assert G.extremal_count(dual, w, p, eps, "separated") <= sep


def test_extremal_scale_guard():
    w = G.folner_window(C2, 1)
    pts = [G.TorusVector(w, (Fraction(i, 5000), Fraction(0))) for i in range(4100)]
    with pytest.raises(ScaleExceeded):
        G.extremal_count(pts, w, math.inf, Fraction(1, 10), "separated")


def test_extremal_counts_reject_empty_set():
    from grdet.dynamics import separated_count_with_greedy
    w = G.folner_window(C3, 1)
    for mode in ("separated", "spanning"):
        with pytest.raises(DomainError):
            G.extremal_count([], w, math.inf, Fraction(1, 10), mode)
    # the greedy bound goes through the same checks
    with pytest.raises(DomainError):
        separated_count_with_greedy([], w, math.inf, Fraction(1, 10))


def test_extremal_counts_reject_bad_p():
    dual = G.solve_dual_finite(cyc_elem(C5, {0: 2, 1: 1}), C5)
    assert dual.count == 33
    for p in (3, 0, -1, 1.5, "2", "l2", None):
        for mode in ("separated", "spanning"):
            with pytest.raises(DomainError, match="p must be"):
                G.extremal_count(dual, dual.window, p, Fraction(1, 5), mode)
        with pytest.raises(DomainError, match="p must be"):
            separated_count_with_greedy(dual, dual.window, p, Fraction(1, 5))
    for p in (1, 2, math.inf, "inf", 2.0):
        G.extremal_count(dual, dual.window, p, Fraction(1, 5), "separated")


@pytest.mark.parametrize("eps", [0, -1, Fraction(-1, 5), 0.0, -0.25])
def test_extremal_counts_reject_nonpositive_eps(eps):
    dual = G.solve_dual_finite(cyc_elem(C3, {0: 2, 1: 1}), C3)
    for mode in ("separated", "spanning"):
        with pytest.raises(DomainError, match="^eps must be positive$"):
            G.extremal_count(dual, dual.window, math.inf, eps, mode)
        with pytest.raises(DomainError, match="^eps must be positive$"):
            G.extremal_count(dual.vectors(), dual.window, 1, eps, mode)
    with pytest.raises(DomainError, match="^eps must be positive$"):
        separated_count_with_greedy(dual, dual.window, 2, eps)


def test_extremal_counts_on_non_materialized_dual():
    f = cyc_elem(C5, {0: 2, 1: 1})
    lazy = G.solve_dual_finite(f, C5, materialize_limit=0)
    full = G.solve_dual_finite(f, C5)
    assert lazy.solutions is None and lazy.count == 33
    for p in (1, 2, math.inf):
        for eps in (Fraction(1, 100), Fraction(1, 12), Fraction(1, 5), Fraction(1, 2)):
            for mode in ("separated", "spanning"):
                assert (G.extremal_count(lazy, lazy.window, p, eps, mode)
                        == G.extremal_count(full.vectors(), full.window, p, eps, mode))
            assert (separated_count_with_greedy(lazy, lazy.window, p, eps)
                    == separated_count_with_greedy(full, full.window, p, eps))


def test_dual_vectors_built_on_request(monkeypatch):
    built = []
    post_init = G.TorusVector.__post_init__
    monkeypatch.setattr(G.TorusVector, "__post_init__", lambda self: (built.append(self), post_init(self)))
    f = cyc_elem(C5, {0: 2, 1: 1})
    dual = G.solve_dual_finite(f, C5)
    G.extremal_count(dual, dual.window, 2, Fraction(1, 5), "separated")
    dual.to_csv()
    assert built == []
    vectors = dual.vectors()
    assert len(built) == 33 and dual.vectors() is vectors is dual.solutions
    D = dual.denominator
    assert [h.values for h in vectors] == [tuple(Fraction(int(v), D) for v in row)
                                           for row in dual.numerators]
    capped = G.solve_dual_finite(f, C5, materialize_limit=32)
    assert capped.solutions is None
    with pytest.raises(ScaleExceeded):
        capped.vectors()


def test_dual_solution_sets_compare_by_identity():
    # numerators is an array, so sets compare and hash as objects
    f = cyc_elem(C5, {0: 2, 1: 1})
    dual, again = G.solve_dual_finite(f, C5), G.solve_dual_finite(f, C5)
    assert dual == dual and dual != again
    assert len({dual, again, dual}) == 2


def test_dual_past_int64_raises_before_enumeration():
    # 2 + x over Z/40 has 2^40 - 1 solutions and D = 2^40 - 1, within a
    # raised hard_limit; 40 D^2 leaves int64, and no enumeration could finish
    C40 = G.cyclic_product([40])
    with pytest.raises(ScaleExceeded, match="int64"):
        G.solve_dual_finite(cyc_elem(C40, {0: 2, 1: 1}), C40, hard_limit=2 ** 41)


def test_orbit_counts_reject_elements_outside_the_window():
    dual = G.solve_dual_finite(cyc_elem(C5, {0: 2, 1: 1}), C5)
    x, y = dual.vectors()[:2]
    foreign = [G.GroupElement(C3, (1,))]
    for call in (lambda F: G.orbit_distance(x, y, F, 1),
                 lambda F: G.extremal_count(dual, F, 1, Fraction(1, 5), "separated"),
                 lambda F: G.extremal_count([x, y], F, 2, Fraction(1, 5), "spanning"),
                 lambda F: separated_count_with_greedy(dual, F, math.inf, Fraction(1, 5))):
        with pytest.raises(G.DescriptorMismatch):
            call(foreign)
        with pytest.raises(G.DescriptorMismatch):
            call(G.folner_window(C3, 1))
    # points over part of the group: F reaches past their window
    part = G.window_from_coords(Z1, [(0,), (1,), (2,)])
    u = G.TorusVector(part, (Fraction(0), Fraction(1, 2), Fraction(1, 4)))
    v = G.TorusVector(part, (Fraction(1, 3), Fraction(0), Fraction(0)))
    outside = [G.GroupElement(Z1, (1,)), G.GroupElement(Z1, (3,))]
    with pytest.raises(DomainError, match="outside"):
        G.orbit_distance(u, v, outside, 1)
    with pytest.raises(DomainError, match="outside"):
        G.extremal_count([u, v], outside, math.inf, Fraction(1, 5), "separated")
    with pytest.raises(DomainError, match="outside"):
        separated_count_with_greedy([u, v], outside, math.inf, Fraction(1, 5))
    assert G.orbit_distance(u, v, outside[:1], math.inf) == 0.5


# ---------------------------------------------------------------------- relation oracle
#
# The per-pair Fraction loop below is the relation the integer kernel
# (dynamics._relation_bitsets) replaced, kept verbatim as the reference, with
# the greedy clique that grdet separated reports.

def oracle_circle_distance(s, t):
    d = (s - t) % 1
    return min(d, 1 - d)


def oracle_pairwise_relation(points, elems, p, eps):
    """Exact boolean matrices: d > eps (strict) and d <= eps."""
    eps = Fraction(eps) if all(pt.is_exact() for pt in points) else float(eps)
    m = len(points)
    coord_rows = []
    for pt in points:
        coord_rows.append([pt.coordinate(g) for g in elems])
    sep = [[False] * m for _ in range(m)]
    near = [[True] * m for _ in range(m)]
    nF = len(elems)
    if p == 2:
        thr = eps * eps * nF
    elif p == 1:
        thr = eps * nF
    else:
        thr = eps
    for i in range(m):
        for j in range(i + 1, m):
            if p == math.inf or p == "inf":
                stat = max(oracle_circle_distance(a, b) for a, b in zip(coord_rows[i], coord_rows[j]))
            elif p == 1:
                stat = sum(oracle_circle_distance(a, b) for a, b in zip(coord_rows[i], coord_rows[j]))
            else:
                stat = sum(
                    oracle_circle_distance(a, b) ** 2
                    for a, b in zip(coord_rows[i], coord_rows[j])
                )
            gt = stat > thr
            sep[i][j] = sep[j][i] = gt
            near[i][j] = near[j][i] = not gt
    return sep, near


def oracle_greedy_clique(adj):
    m = len(adj)
    order = sorted(range(m), key=lambda v: -sum(adj[v]))
    greedy = []
    for v in order:
        if all(adj[v][u] for u in greedy):
            greedy.append(v)
    return len(greedy)


def kernel_relation(S, F, p, eps):
    bits = _extremal_relation(S, F, p, eps)
    m = len(bits)
    sep = [[bool(row >> j & 1) for j in range(m)] for row in bits]
    near = [[i == j or not sep[i][j] for j in range(m)] for i in range(m)]
    return sep, near


def occurring_eps(points, elems, p, rng):
    """An eps equal to the positive orbit distance of some pair, so that the
    strict and the non-strict comparison disagree on that pair (None for l^2
    when no sampled distance is rational, or when every sampled pair
    coincides on elems)."""
    for _ in range(20):
        x, y = rng.sample(points, 2)
        d = [oracle_circle_distance(Fraction(x.coordinate(g)), Fraction(y.coordinate(g)))
             for g in elems]
        if not any(d):
            continue
        if p == math.inf:
            return max(d)
        if p == 1:
            return sum(d) / len(d)
        sq = sum(v * v for v in d) / len(d)
        num, den = math.isqrt(sq.numerator), math.isqrt(sq.denominator)
        if num * num == sq.numerator and den * den == sq.denominator:
            return Fraction(num, den)
    return None


def random_dual(rng, moduli, limit):
    """The dual of 2 or 3 plus one or two unit terms, at most limit points."""
    desc = G.cyclic_product(moduli)
    elems = G.folner_window(desc, 1).elements
    for _ in range(100):
        terms = {g.coords: rng.choice((-1, 1)) for g in rng.sample(elems[1:], rng.randint(1, 2))}
        terms[elems[0].coords] = rng.randint(2, 3)
        try:
            dual = G.solve_dual_finite(G.ring_element(desc, terms), desc, hard_limit=limit)
        except (SingularCompression, ScaleExceeded):
            continue
        if dual.count >= 2:
            return dual
    raise AssertionError(f"no dual of at most {limit} points over {moduli}")


@pytest.mark.parametrize("moduli", [[3], [4], [5], [6], [2, 2], [2, 3], [2, 2, 2]])
def test_relation_kernel_matches_oracle_on_duals(moduli):
    rng = random.Random(str(moduli))
    dual = random_dual(rng, moduli, 90)
    pts, window = list(dual.vectors()), dual.window
    half = len(window) // 2 or 1
    sub = G.window_from_coords(window.descriptor,
                               [g.coords for g in rng.sample(window.elements, half)])
    ties = 0
    # the whole window, a proper sub-window and a bare element list
    for F in (window, sub, rng.sample(window.elements, half)):
        elems = list(F.elements if isinstance(F, G.FolnerWindow) else F)
        for p in (1, 2, math.inf):
            eps_list = [Fraction(rng.randint(1, 12), rng.choice((24, 30, 40))), Fraction(1, 2)]
            tie = occurring_eps(pts, elems, p, rng)
            if tie is not None:
                eps_list.append(tie)
                ties += 1
            for eps in eps_list:
                oracle = oracle_pairwise_relation(pts, elems, p, eps)
                assert kernel_relation(dual, F, p, eps) == oracle
                assert kernel_relation(pts, F, p, eps) == oracle
    assert ties  # the non-strict side of the comparison was exercised


def test_relation_kernel_matches_oracle_on_point_lists():
    rng = random.Random(20261)
    desc = G.cyclic_product([2, 3])
    w = G.folner_window(desc, 1)
    sub = [g for g in w.elements][1:4]
    for den in (6, 35, 1 << 20, (1 << 40) + 15, 3 ** 40):
        # the last two denominators put |F| D^2 past 2^62: Python-int path
        for _ in range(2):
            pts = [G.TorusVector(w, tuple(Fraction(rng.randrange(den), rng.choice((den, 1 + den // 7 or 1)))
                                          % 1 for _ in range(len(w))))
                   for _ in range(rng.randint(2, 30))]
            for F, elems in ((w, list(w.elements)), (sub, sub)):
                for p in (1, 2, math.inf):
                    # eps of any size must not overflow the int64 path
                    for eps in (Fraction(1, 7), Fraction(rng.randrange(1, den), 3 * den),
                                occurring_eps(pts, elems, p, rng), Fraction(10 ** 30)):
                        if eps is not None:
                            assert (kernel_relation(pts, F, p, eps)
                                    == oracle_pairwise_relation(pts, elems, p, eps))


def test_relation_kernel_takes_floats_exactly():
    rng = random.Random(20262)
    w = G.folner_window(C3, 1)
    for _ in range(6):
        pts = [G.TorusVector(w, tuple(rng.random() for _ in range(3))) for _ in range(25)]
        exact = [G.TorusVector(w, tuple(Fraction(v) for v in pt.values)) for pt in pts]
        elems = list(w.elements)
        for p in (1, 2, math.inf):
            # a float coordinate is its exact binary value
            tie = occurring_eps(exact, elems, p, rng)
            for eps in (0.05, 0.2, rng.random() / 2, tie):
                if eps is None:
                    continue
                assert kernel_relation(pts, w, p, eps) == oracle_pairwise_relation(exact, elems, p, eps)
            # away from ties the old float comparison agrees as well
            for eps in (0.05, 0.2, rng.random() / 2):
                assert kernel_relation(pts, w, p, eps) == oracle_pairwise_relation(pts, elems, p, eps)


# ---------------------------------------------------------------------- exact searches

def milp_max_clique(sep):
    """Maximum clique by integer programming: x_u + x_v <= 1 on non-edges."""
    m = len(sep)
    rows = []
    for u in range(m):
        for v in range(u + 1, m):
            if not sep[u][v]:
                r = np.zeros(m)
                r[u] = r[v] = 1
                rows.append(r)
    cons = [LinearConstraint(np.array(rows), -np.inf, 1)] if rows else []
    res = milp(-np.ones(m), constraints=cons, integrality=np.ones(m), bounds=Bounds(0, 1))
    assert res.success
    return round(-res.fun)


def milp_min_cover(near):
    """Minimum cover by closed balls by integer programming."""
    m = len(near)
    A = np.array(near, dtype=float)
    res = milp(np.ones(m), constraints=[LinearConstraint(A, 1, np.inf)],
               integrality=np.ones(m), bounds=Bounds(0, 1))
    assert res.success
    return round(res.fun)


def test_separated_count_45_point_dual():
    # the dual of 3 + x + y over Z/2 x Z/2 at (inf, 1/5): 945 of 990 pairs
    # are separated, and a search bounded only by the candidate count did
    # not finish in 85 s
    desc = G.cyclic_product([2, 2])
    f = G.ring_element(desc, {(0, 0): 3, (1, 0): 1, (0, 1): 1})
    dual = G.solve_dual_finite(f, desc)
    assert dual.count == 45
    eps = Fraction(1, 5)
    sep, near = oracle_pairwise_relation(list(dual.vectors()), list(dual.window.elements),
                                         math.inf, eps)
    assert sum(map(sum, sep)) == 2 * 945
    assert milp_max_clique(sep) == 18
    assert G.extremal_count(dual, dual.window, math.inf, eps, "separated") == 18
    assert G.extremal_count(dual, dual.window, math.inf, eps, "spanning") == milp_min_cover(near)


def test_clique_and_cover_searches_match_milp_on_random_graphs():
    rng = random.Random(20264)
    beaten_clique = beaten_cover = 0
    for trial in range(40):
        m = rng.randint(8, 36)
        density = rng.choice((0.1, 0.2, 0.5, 0.8, 0.9))
        # about half the graphs fall into two blocks with no edge between
        # them, so that the split into components is exercised
        cut = rng.randint(1, m - 1) if trial % 2 else m
        adj = [[False] * m for _ in range(m)]
        for u in range(m):
            for v in range(u + 1, m):
                if (u < cut) == (v < cut) and rng.random() < density:
                    adj[u][v] = adj[v][u] = True
        sep_bits = [sum(1 << v for v in range(m) if adj[u][v]) for u in range(m)]
        clique, greedy = _max_clique(sep_bits)
        assert greedy == oracle_greedy_clique(adj)
        assert clique == milp_max_clique(adj)
        beaten_clique += clique > greedy
        # the same graph read as closed balls
        near = [[u == v or adj[u][v] for v in range(m)] for u in range(m)]
        ball_bits = [sum(1 << v for v in range(m) if near[u][v]) for u in range(m)]
        cover = milp_min_cover(near)
        assert _min_cover(ball_bits) == cover
        covered, greedy_cover = set(), 0
        while len(covered) < m:
            pick = max(range(m), key=lambda i: sum(near[i][j] and j not in covered
                                                   for j in range(m)))
            covered |= {j for j in range(m) if near[pick][j]}
            greedy_cover += 1
        beaten_cover += greedy_cover > cover
    # the searches improved on their greedy starts, not just confirmed them
    assert beaten_clique >= 5 and beaten_cover >= 2


def test_extremal_searches_match_milp():
    rng = random.Random(20263)
    for moduli in ([3], [4], [5], [6], [2, 2], [2, 3]):
        dual = random_dual(rng, moduli, 60)
        pts, elems = list(dual.vectors()), list(dual.window.elements)
        for p in (1, 2, math.inf):
            eps = Fraction(rng.randint(1, 12), rng.choice((24, 30, 40)))
            sep, near = oracle_pairwise_relation(pts, elems, p, eps)
            assert (separated_count_with_greedy(dual, dual.window, p, eps)
                    == (milp_max_clique(sep), oracle_greedy_clique(sep)))
            assert G.extremal_count(dual, dual.window, p, eps, "spanning") == milp_min_cover(near)


# ---------------------------------------------------------------------- entropy chain

def test_entropy_examples():
    assert G.entropy_finite_group(G.identity_element(C5), C5).value == 0.0

    est5 = G.entropy_finite_group(cyc_elem(C5, {0: 3, 1: 1}), C5)
    # product of (3 + w) over fifth roots of unity is 3^5 + 1 = 244
    assert est5.quotient_order == 244
    assert est5.value == pytest.approx(math.log(244) / 5, abs=1e-15)
    assert est5.dual_enumerated and est5.solution_count == 244

    est2 = G.entropy_finite_group(cyc_elem(C2, {0: 3, 1: 1}), C2)
    assert est2.quotient_order == 8
    assert est2.value == pytest.approx(math.log(8) / 2, abs=1e-15)


def test_entropy_singular():
    with pytest.raises(SingularCompression):
        G.entropy_finite_group(cyc_elem(C2, {0: 1, 1: 1}), C2)


def test_entropy_given_a_window():
    f = cyc_elem(C5, {0: 3, 1: 1})
    assert G.entropy_finite_group(f, G.folner_window(C5, 1)) == G.entropy_finite_group(f, C5)
    # a window short of the group: the chain runs on the section f_W
    W = G.window_from_coords(C5, [(0,), (1,), (2,)])
    adet = abs(G.det_exact(G.compress(f, W).to_int_rows()))
    est = G.entropy_finite_group(f, W)
    assert (est.group_order, est.abs_det, est.quotient_order, est.solution_count) == (3, adet, adet, adet)
    assert est.value == math.log(adet) / 3 and est.solution_count == G.solve_dual_finite(f, W).count
    # below |det| the order is the Smith order alone
    skipped = G.entropy_finite_group(f, W, enumeration_limit=adet - 1)
    assert (skipped.quotient_order, skipped.solution_count, skipped.dual_enumerated) == (adet, None, False)
    with pytest.raises(DomainError, match="entropy_finite_group needs a finite group"):
        G.entropy_finite_group(f, Z1)


# ---------------------------------------------------------------------- lattice balls

def test_count_lattice_ball_examples():
    assert G.count_lattice_ball(1, 2.5) == 5
    assert G.count_lattice_ball(2, 1.5) == 9
    assert G.count_lattice_ball(2, 0) == 1


def test_count_lattice_ball_brute_force_small():
    for k in (1, 2, 3):
        for R in (1, 2, 3.5):
            lim = int(R) + 1
            brute = sum(
                1
                for x in itertools.product(range(-lim, lim + 1), repeat=k)
                if sum(v * v for v in x) <= R * R
            )
            assert G.count_lattice_ball(k, R) == brute


def test_count_lattice_ball_volume_bound():
    # every unit cube anchored at a counted point sits inside the inflated ball
    for k in (1, 2, 3, 4):
        for R in (1, 2.5, 5, 10):
            bound = math.pi ** (k / 2) * (R + math.sqrt(k)) ** k / math.gamma(k / 2 + 1)
            assert G.count_lattice_ball(k, R) <= bound


def test_count_lattice_ball_guards():
    with pytest.raises(ScaleExceeded):
        G.count_lattice_ball(7, 1)
    with pytest.raises(ScaleExceeded):
        G.count_lattice_ball(2, 50)


def test_count_lattice_ball_checks_its_dimension():
    assert G.count_lattice_ball(np.int64(2), 2) == G.count_lattice_ball(2, 2) == 13
    for k in (True, 2.0, "2"):
        with pytest.raises(DomainError, match="dimension must be an integer"):
            G.count_lattice_ball(k, 2)


def test_count_lattice_ball_rejects_negative_radius():
    # the radius is squared: -3 must not count the radius-3 ball
    with pytest.raises(DomainError, match="nonnegative"):
        G.count_lattice_ball(2, -3)
    with pytest.raises(DomainError, match="nonnegative"):
        G.count_lattice_ball(1, Fraction(-1, 2))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_eps_and_radius_raise_domain_errors(value):
    dual = G.solve_dual_finite(cyc_elem(C3, {0: 2, 1: 1}), C3)
    for mode in ("separated", "spanning"):
        with pytest.raises(DomainError, match="^eps must be finite$"):
            G.extremal_count(dual, dual.window, math.inf, value, mode)
    with pytest.raises(DomainError, match="^eps must be finite$"):
        separated_count_with_greedy(dual.vectors(), dual.window, 2, value)
    with pytest.raises(DomainError, match="^radius must be finite$"):
        G.count_lattice_ball(2, value)


# ---------------------------------------------------------------------- quasitiling

def interval_window(a, b):
    return G.window_from_coords(Z1, [(i,) for i in range(a, b)])


def test_quasitile_exact_cases():
    F = interval_window(0, 100)
    t = G.quasitile(F, [interval_window(0, 10)], 0.1)
    G.verify_tiling(t)
    assert [c.coords[0] for _, c in t.placements] == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]
    assert t.coverage == 1

    Z2 = G.integer_lattice(2)
    F2 = G.window_from_coords(Z2, [(i, j) for i in range(100) for j in range(100)])
    tile2 = G.window_from_coords(Z2, [(i, j) for i in range(10) for j in range(10)])
    t2 = G.quasitile(F2, [tile2], 0.1)
    G.verify_tiling(t2)
    assert len(t2.placements) == 100
    assert t2.coverage == 1


def test_tiling_csv(capsys):
    from grdet import cli
    F = interval_window(0, 20)
    t = G.quasitile(F, [interval_window(0, 5)], 0.2)
    cli._emit(["tile_index", "center_coordinates"], cli._tiling_rows(t), "csv")
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "tile_index,center_coordinates"
    assert lines[1] == "0,0"


def test_quasitile_mixed_tiles():
    F = interval_window(0, 100)
    tiles = [interval_window(0, 7), interval_window(0, 3)]
    t = G.quasitile(F, tiles, 0.1, mode="epsilon-disjoint")
    G.verify_tiling(t)
    assert t.coverage >= Fraction(9, 10)
    tp = G.quasitile(F, tiles, 0.1, mode="pairwise-disjoint")
    G.verify_tiling(tp)
    assert tp.coverage >= Fraction(9, 10)


def test_quasitile_determinism_and_validation():
    F = interval_window(0, 50)
    tiles = [interval_window(0, 4)]
    a = G.quasitile(F, tiles, 0.25)
    b = G.quasitile(F, tiles, 0.25)
    assert a.placements == b.placements
    with pytest.raises(DomainError):
        G.quasitile(F, tiles, 0.7)
    with pytest.raises(DomainError):
        G.quasitile(F, [], 0.1)


def test_quasitile_rejects_tiles_over_another_group():
    with pytest.raises(G.DescriptorMismatch):
        G.quasitile(interval_window(0, 10), [G.folner_window(C5, 1)], 0.1)


def test_quasitile_coverage_shortfall_is_reported():
    # a tile that only fits once leaves most of the window uncovered
    F = interval_window(0, 10)
    t = G.quasitile(F, [interval_window(0, 9)], 0.25)
    G.verify_tiling(t)
    assert t.coverage == Fraction(9, 10)
