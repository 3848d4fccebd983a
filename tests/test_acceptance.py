"""Acceptance suite.

One test per criterion; each prints a PASS line with the measured numbers
(run pytest with -s to see them inline) and asserts its stated tolerance
and runtime budget.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import grdet as G
from grdet.det import det_exact

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)
H3 = G.heisenberg3()

# independent oracle for the Mahler measure of 3 + u + u^-1: quadratic formula
MAHLER_3UU = math.log((3 + math.sqrt(5)) / 2)

F3UU = G.ring_element(Z1, {(0,): 3, (1,): 1, (-1,): 1})


def report(name, elapsed, detail=""):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s) {detail}")


# --------------------------------------------------------------------------
# 1. finite-group equality chain

MODULI_POOL = [
    [2], [3], [4], [5], [6], [7], [8], [2, 2], [9], [10], [2, 4], [3, 3],
    [12], [2, 6], [2, 2, 2], [14], [15], [16], [2, 8], [4, 4], [18], [2, 9],
    [20], [4, 5], [21], [22], [24], [2, 12], [3, 8], [2, 2, 2, 3],
]


def _draw_chain_instance(rng):
    """f = c e + r with |c| > |r|_1 <= 3 over a random product of cyclics.

    Instances are redrawn until the solution count is enumerable (<= 1e5);
    the equality-chain statement is unchanged, only the instance scale is
    capped so the explicit dual enumeration stays affordable.
    """
    while True:
        desc = G.cyclic_product(rng.choice(MODULI_POOL))
        k = len(desc.params)
        norm_budget = rng.randint(0, 3)
        terms = {}
        budget = norm_budget
        while budget > 0:
            g = tuple(rng.randrange(m) for m in desc.params)
            if all(x == 0 for x in g):
                continue
            terms[g] = terms.get(g, 0) + rng.choice([1, -1])
            budget -= 1
        r = G.ring_element(desc, terms)
        norm_r = int(G.l1_norm(r))
        if norm_r > 3:
            continue
        c = rng.choice([1, -1]) * (norm_r + rng.randint(1, 3))
        f = G.add(G.ring_element(desc, {(0,) * k: c}), r)
        M = G.compress(f, G.folner_window(desc, 1)).to_int_rows()
        order = G.quotient_order(G.snf(M, transforms=False))
        if order is math.inf or order > 100_000:
            continue
        return desc, f


def test_c01_finite_group_equality_chain():
    t0 = time.monotonic()
    rng = random.Random(20260809)
    sizes = set()
    for _ in range(25):
        desc, f = _draw_chain_instance(rng)
        window = G.folner_window(desc, 1)
        M = G.compress(f, window).to_int_rows()
        order = G.quotient_order(G.snf(M, transforms=False))
        adet = abs(det_exact(M))
        dual = G.solve_dual_finite(f, desc, materialize_limit=0)
        est = G.entropy_finite_group(f, desc, enumeration_limit=100_000)
        assert dual.count == order == adet == est.quotient_order
        assert abs(est.value - math.log(order) / desc.order()) <= 1e-12
        sizes.add(desc.order())
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    report("1 finite-group equality chain", elapsed, f"group orders seen: {sorted(sizes)}")


# --------------------------------------------------------------------------
# 2. Yuzvinskii / FK cross-check on Z

def test_c02_yuzvinskii_fk_cross_check():
    t0 = time.monotonic()
    roots_value = G.mahler_roots(F3UU)
    assert abs(roots_value - 0.962423650119) <= 1e-9
    assert abs(roots_value - MAHLER_3UU) <= 1e-12

    cert = G.certify_invertible(F3UU, "positive-gap")
    tab = G.fk_finite_sections(F3UU, [G.folner_window(Z1, 1000)], certificate=cert)
    assert abs(tab.values()[0] - roots_value) <= 1e-2

    poly_value, bound = G.fk_poly_trace(F3UU, (1, 25), 40)
    assert abs(poly_value - roots_value) <= bound
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    report("2 yuzvinskii/fk cross-check", elapsed,
           f"roots {roots_value:.12f}, sections {tab.values()[0]:.6f}, "
           f"poly {poly_value:.12f} +- {bound:.2e}")


# --------------------------------------------------------------------------
# 3. grid-circulant identity on Z^2

def _rand_nonvanishing(rng, desc, span=2):
    d = desc.params[0]
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            g = tuple(rng.randint(-span, span) for _ in range(d))
            if g == (0,) * d:
                continue
            terms[g] = rng.randint(-2, 2)
        r = G.ring_element(desc, terms)
        norm = int(G.l1_norm(r))
        c = (norm + rng.randint(1, 3)) * rng.choice([1, -1])
        return G.add(G.ring_element(desc, {(0,) * d: c}), r)


def test_c03_grid_circulant_identity():
    t0 = time.monotonic()
    rng = random.Random(33)
    for _ in range(10):
        f = _rand_nonvanishing(rng, Z2)
        for N in (4, 8, 16):
            a = G.mahler_grid(f, N)
            b = G.circulant_logdet(f, N)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    report("3 grid-circulant identity", elapsed)


# --------------------------------------------------------------------------
# 4. SNF against coset enumeration

def _adjugate3(M):
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


def _coset_count(M):
    dval = abs(det_exact(M))
    if dval == 1:
        return 1
    adj = np.array(_adjugate3(M), dtype=np.int64)
    ax = np.arange(dval, dtype=np.int64)
    X = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    labels = (X @ adj.T) % dval
    return len(np.unique(labels, axis=0))


def test_c04_snf_vs_coset_enumeration():
    t0 = time.monotonic()
    rng = random.Random(4444)
    done = 0
    while done < 50:
        M = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if det_exact(M) == 0:
            continue
        assert G.quotient_order(G.snf(M)) == _coset_count(M)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    report("4 snf vs coset enumeration", elapsed)


# --------------------------------------------------------------------------
# 5. perturbation invariance

def test_c05_perturbation_invariance():
    t0 = time.monotonic()
    cert = G.certify_invertible(F3UU, "positive-gap")
    sch = [G.folner_window(Z1, 1000)]
    v1 = G.perturbation_study(F3UU, sch, 0.02, seed=1, certificate=cert).values()[0]
    v2 = G.perturbation_study(F3UU, sch, 0.02, seed=2, certificate=cert).values()[0]
    assert abs(v1 - 0.9624237) <= 2e-2
    assert abs(v2 - 0.9624237) <= 2e-2
    assert abs(v1 - v2) <= 4e-2
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report("5 perturbation invariance", elapsed, f"seeds gave {v1:.6f}, {v2:.6f}")


# --------------------------------------------------------------------------
# 6. multiplicativity and adjoint symmetry

def test_c06_multiplicativity_and_adjoint_symmetry():
    t0 = time.monotonic()
    rng = random.Random(66)
    done = 0
    while done < 10:
        f = _rand_nonvanishing(rng, Z1)
        g = _rand_nonvanishing(rng, Z1)
        prod = G.convolve(f, g)
        assert abs(G.mahler_roots(prod) - G.mahler_roots(f) - G.mahler_roots(g)) <= 1e-9

        for N in (4, 8):
            assert G.mahler_grid(f, N) == G.mahler_grid(G.adjoint(f), N)

        cert = G.certify_invertible(f, "l1-neumann")
        assert cert.certified
        sch = [G.folner_window(Z1, n) for n in (4, 9)]
        rows_f = G.fk_finite_sections(f, sch, certificate=cert).values()
        rows_fs = G.fk_finite_sections(G.adjoint(f), sch, certificate=cert).values()
        assert rows_f == rows_fs
        done += 1
    elapsed = time.monotonic() - t0
    report("6 multiplicativity + adjoint symmetry", elapsed)


# --------------------------------------------------------------------------
# 7. separated-count micro-entropy on Z/3

def test_c07_separated_count_micro_entropy():
    t0 = time.monotonic()
    C3 = G.cyclic_product([3])
    f = G.ring_element(C3, {(0,): 2, (1,): 1})
    assert G.l1_norm(f) == 3
    eps = Fraction(1, 24)  # = 1 / (8 |f|_1)
    dual = G.solve_dual_finite(f, C3)
    assert dual.count == 9
    w = dual.window
    assert G.extremal_count(dual, w, math.inf, eps, "separated") == 9
    for p in (1, 2):
        assert G.extremal_count(dual, w, p, eps, "separated") <= 9
        assert G.extremal_count(dual, w, p, Fraction(1, 1000), "separated") == 9
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    report("7 separated-count micro-entropy", elapsed)


# --------------------------------------------------------------------------
# 8. quasitiling postconditions

def test_c08_quasitiling_postconditions():
    t0 = time.monotonic()
    F = G.window_from_coords(Z1, [(i,) for i in range(100)])
    exact = G.quasitile(F, [G.window_from_coords(Z1, [(i,) for i in range(10)])], 0.1)
    G.verify_tiling(exact)
    assert exact.coverage == 1

    F2 = G.window_from_coords(Z2, [(i, j) for i in range(60) for j in range(60)])
    tile2 = G.window_from_coords(Z2, [(i, j) for i in range(6) for j in range(6)])
    exact2 = G.quasitile(F2, [tile2], 0.1)
    G.verify_tiling(exact2)
    assert exact2.coverage == 1

    mixed = G.quasitile(
        F,
        [G.window_from_coords(Z1, [(i,) for i in range(7)]),
         G.window_from_coords(Z1, [(i,) for i in range(3)])],
        0.1,
        mode="epsilon-disjoint",
    )
    G.verify_tiling(mixed)
    assert mixed.coverage >= Fraction(9, 10)
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    report("8 quasitiling postconditions", elapsed,
           f"mixed coverage {float(mixed.coverage):.3f}")


# --------------------------------------------------------------------------
# 9. lattice-ball volume bound

def test_c09_lattice_ball_volume_bound():
    t0 = time.monotonic()
    for k in (1, 2, 3, 4):
        for R in (1, 2.5, 5, 10):
            count = G.count_lattice_ball(k, R)
            bound = math.pi ** (k / 2) * (R + math.sqrt(k)) ** k / math.gamma(k / 2 + 1)
            assert count <= bound
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    report("9 lattice-ball volume bound", elapsed)


# --------------------------------------------------------------------------
# 10. free-group l1 growth

def test_c10_l1_growth():
    t0 = time.monotonic()
    F2 = G.free_group_rank2()
    base = G.ring_element(F2, {(2,): 1, (1, 2): 1, (1, 1, 2): -1})
    supports = []
    p = G.identity_element(F2)
    for k in range(7):
        if k:
            p = G.convolve(p, base)
        assert G.l1_norm(p) == 3 ** k
        assert len(p) == 3 ** k
        supports.append(p.support())
    for i, j in itertools.combinations(range(7), 2):
        assert not (supports[i] & supports[j])
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    report("10 free-group l1 growth", elapsed)


# --------------------------------------------------------------------------
# 11. nonabelian convergence consistency

def test_c11_heisenberg_consistency():
    t0 = time.monotonic()
    f = G.ring_element(H3, {(0, 0, 0): 5, (1, 0, 0): 1, (-1, 0, 0): 1,
                            (0, 1, 0): 1, (0, -1, 0): 1})
    cert = G.certify_invertible(f, "positive-gap")
    assert cert.certified
    assert cert.witness["spectrum_low"] == pytest.approx(1.0, abs=1e-12)
    assert cert.witness["spectrum_high"] == pytest.approx(9.0, abs=1e-12)

    sch = [G.folner_window(H3, n) for n in (4, 5, 6)]
    tab = G.fk_finite_sections(f, sch, certificate=cert)
    vals = tab.values()
    for a, b in itertools.combinations(vals, 2):
        assert abs(a - b) <= 5e-2

    poly_value, bound = G.fk_poly_trace(f, (1, 81), 40)
    for v in vals:
        assert abs(v - poly_value) <= 5e-2 + bound
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report("11 heisenberg convergence", elapsed,
           f"sections {[round(v, 5) for v in vals]}, poly {poly_value:.5f} +- {bound:.1e}")


# --------------------------------------------------------------------------
# 12. Folner sanity

def test_c12_folner_sanity():
    t0 = time.monotonic()
    K1 = [G.GroupElement(Z1, (k,)) for k in (-1, 0, 1)]
    assert G.boundary_ratio(G.folner_window(Z1, 10), K1) < Fraction(1, 10)

    cross = [G.GroupElement(Z2, c) for c in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]]
    assert G.boundary_ratio(G.folner_window(Z2, 20), cross) < Fraction(1, 10)

    KH = [G.GroupElement(H3, c) for c in [(0, 0, 0), (1, 0, 0), (-1, 0, 0),
                                          (0, 1, 0), (0, -1, 0)]]
    ratio = G.boundary_ratio(G.folner_window(H3, 25), KH)
    assert ratio < Fraction(1, 10)
    elapsed = time.monotonic() - t0
    report("12 folner sanity", elapsed,
           f"thresholds: Z n>=10, Z^2 n>=20, H3 n>=25 (ratio {float(ratio):.4f})")
