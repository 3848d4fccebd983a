import itertools
import math
import random
from fractions import Fraction

import pytest

import grdet as G
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


def test_count_lattice_ball_rejects_negative_radius():
    # the radius is squared: -3 must not count the radius-3 ball
    with pytest.raises(DomainError, match="nonnegative"):
        G.count_lattice_ball(2, -3)
    with pytest.raises(DomainError, match="nonnegative"):
        G.count_lattice_ball(1, Fraction(-1, 2))


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


def test_quasitile_coverage_shortfall_is_reported():
    # a tile that only fits once leaves most of the window uncovered
    F = interval_window(0, 10)
    t = G.quasitile(F, [interval_window(0, 9)], 0.25)
    G.verify_tiling(t)
    assert t.coverage == Fraction(9, 10)


def test_tiling_csv():
    F = interval_window(0, 20)
    t = G.quasitile(F, [interval_window(0, 5)], 0.2)
    lines = t.to_csv().strip().split("\n")
    assert lines[0] == "tile_index,center_coordinates"
    assert lines[1] == "0,0"
