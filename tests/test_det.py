import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import grdet as G
from grdet.det import TableRow, det_exact
from grdet.errors import DomainError

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)


def zpoly(mapping):
    return G.ring_element(Z1, {(k,): v for k, v in mapping.items()})


def window_range(n):
    return G.window_from_coords(Z1, [(i,) for i in range(n)])


F3 = zpoly({0: 3, 1: 1, -1: 1})
# independent oracle for the Mahler value of 3 + u + u^-1: the quadratic
# formula on z^2 + 3z + 1 keeps the root (3 + sqrt 5)/2 outside the circle
MAHLER_3UU = math.log((3 + math.sqrt(5)) / 2)


# ---------------------------------------------------------------------- logabsdet

def test_logabsdet_examples():
    assert G.logabsdet(np.eye(5)) == 0.0
    assert G.logabsdet(np.diag([2.0, 3.0])) == pytest.approx(math.log(6), rel=1e-14)
    # tridiagonal(3;1) size 3: dets follow d_k = 3 d_{k-1} - d_{k-2} = 3, 8, 21
    M = G.compress(F3, window_range(3))
    assert G.logabsdet(M) == pytest.approx(math.log(21), rel=1e-14)
    assert G.logabsdet(np.zeros((3, 3))) == -math.inf
    with pytest.raises(DomainError):
        G.logabsdet(np.ones((2, 3)))


def test_logabsdet_dense_sparse_agree():
    # the same tridiagonal through LAPACK and through SuperLU
    M = G.compress(F3, window_range(600))
    dense = G.logabsdet(M.to_float())
    sparse = G.logabsdet(M.to_csr())
    assert sparse == pytest.approx(dense, rel=1e-12)


# ---------------------------------------------------------------------- snf

def test_snf_examples():
    assert G.snf([[2, 0], [0, 3]]).divisors == (1, 6)
    assert G.snf([[1, 0], [0, 1]]).divisors == (1, 1)
    assert G.snf([[2, 1], [0, 3]]).divisors == (1, 6)


def test_quotient_order_examples():
    assert G.quotient_order(G.snf([[2, 0], [0, 3]])) == 6
    assert G.quotient_order(G.snf([[1, 0], [0, 1]])) == 1
    assert G.quotient_order(G.snf([[1, 0], [0, 0]])) is math.inf


def _check_snf_contract(M):
    res = G.snf(M)
    d = res.divisors
    for a, b in zip(d, d[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    U = np.array(res.u, dtype=object)
    V = np.array(res.v, dtype=object)
    D = np.zeros((len(M), len(M[0])), dtype=object)
    for i, di in enumerate(d):
        D[i, i] = di
    assert np.array_equal(U @ D @ V, np.array(M, dtype=object))
    assert abs(det_exact([list(r) for r in res.u])) == 1
    assert abs(det_exact([list(r) for r in res.v])) == 1
    W = np.array(res.v_inverse, dtype=object)
    assert np.array_equal(V @ W, np.eye(len(M[0]), dtype=object))
    return res


def test_snf_randomized_against_exact_determinant():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(1, 8)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        res = _check_snf_contract(M)
        prod = 1
        for di in res.divisors:
            prod *= di
        assert prod == abs(det_exact(M))


def test_snf_rectangular():
    res = _check_snf_contract([[2, 4, 6], [4, 8, 12]])
    assert res.divisors == (2, 0)


# coset-enumeration oracle: every coset of M Z^3 has a representative in
# [0, |det|)^3 because |det| Z^3 lies inside M Z^3, and x ~ y exactly when
# adj(M) (x - y) = 0 mod |det|
def _adjugate3(M):
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


def coset_count_oracle(M):
    dval = abs(det_exact(M))
    adj = np.array(_adjugate3(M), dtype=np.int64)
    ax = np.arange(dval, dtype=np.int64)
    X = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    labels = (X @ adj.T) % dval if dval > 1 else np.zeros((1, 3), dtype=np.int64)
    return len(np.unique(labels, axis=0))


def test_quotient_order_matches_coset_enumeration():
    rng = random.Random(777)
    done = 0
    while done < 25:
        M = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if det_exact(M) == 0:
            continue
        assert G.quotient_order(G.snf(M)) == coset_count_oracle(M)
        done += 1


# ---------------------------------------------------------------------- finite sections

def test_fk_sections_requires_gate():
    with pytest.raises(DomainError):
        G.fk_finite_sections(F3, [window_range(3)])


def test_fk_sections_examples():
    cert = G.certify_invertible(F3, "positive-gap")
    tab = G.fk_finite_sections(F3, [window_range(3)], certificate=cert)
    assert tab.values()[0] == pytest.approx(math.log(21) / 3, rel=1e-13)

    two = zpoly({0: 2})
    tab2 = G.fk_finite_sections(two, [window_range(2), window_range(5)], assume_invertible=True)
    for v in tab2.values():
        assert v == pytest.approx(math.log(2), rel=1e-13)

    sch = [G.folner_window(Z1, n) for n in (10, 100, 1000)]
    tab3 = G.fk_finite_sections(F3, sch, certificate=cert)
    assert abs(tab3.values()[-1] - MAHLER_3UU) < 1e-2
    # diagnostics: boundary ratios shrink along the schedule
    ratios = [r.boundary_ratio for r in tab3.rows]
    assert ratios[0] > ratios[-1]


def test_fk_sections_singular_window_is_defect_row():
    # u is a unitary, invertible in the algebra, but every compression of it
    # to {0..n} is nilpotent
    shift = zpoly({1: 1})
    tab = G.fk_finite_sections(shift, [window_range(4)], assume_invertible=True)
    assert tab.rows[0].is_defect
    assert tab.values()[0] == -math.inf


def test_fk_sections_adjoint_rows_identical():
    rng = random.Random(88)
    cert_needed = zpoly({0: 9, 1: 2, 2: -1, -1: 3})  # not self-adjoint
    cert = G.certify_invertible(cert_needed, "l1-neumann")
    assert cert.certified
    sch = [G.folner_window(Z1, n) for n in (5, 17, 40)]
    t1 = G.fk_finite_sections(cert_needed, sch, certificate=cert)
    t2 = G.fk_finite_sections(G.adjoint(cert_needed), sch, certificate=cert)
    assert t1.values() == t2.values()


def test_convergence_table_csv():
    tab = G.ConvergenceTable(
        "demo", (TableRow(1, 3, Fraction(1, 3), 0.5, "sections"),
                 TableRow(2, 5, Fraction(1, 5), 0.25, "sections"))
    )
    text = tab.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,window_size,boundary_ratio,value,method"
    assert lines[1].startswith("1,3,0.333333333333,0.5,")
    with pytest.raises(DomainError):
        G.ConvergenceTable("bad", (TableRow(1, 5, Fraction(0), 0.0, "x"),
                                   TableRow(2, 5, Fraction(0), 0.0, "x")))


# ---------------------------------------------------------------------- poly trace

def test_poly_trace_constant_symbol_exact():
    two = zpoly({0: 2})
    val, bound = G.fk_poly_trace(two, (4, 4), 40)
    assert val == math.log(2)
    assert bound == 0.0


def test_poly_trace_matches_mahler_within_bound():
    val, bound = G.fk_poly_trace(F3, (1, 25), 40)
    assert abs(val - MAHLER_3UU) <= bound
    assert bound < 1e-6


def test_poly_trace_reruns_consistent():
    v1, b1 = G.fk_poly_trace(F3, (1, 25), 40)
    v2, b2 = G.fk_poly_trace(F3, (1, 25), 60)
    assert abs(v1 - v2) <= b1 + b2


def test_poly_trace_rejects_bad_interval():
    with pytest.raises(DomainError):
        G.fk_poly_trace(F3, (0, 25), 10)
    with pytest.raises(DomainError):
        G.fk_poly_trace(F3, (9, 4), 10)


def test_poly_trace_non_self_adjoint_path():
    f = zpoly({0: 4, 1: 1})  # f* f = 17e + 4u + 4u^-1, spectrum in [9, 25]
    val, bound = G.fk_poly_trace(f, (9, 25), 30)
    # FK determinant of 4e + u is the Mahler measure log 4
    assert abs(val - math.log(4)) <= bound + 1e-12


def test_poly_trace_complex_domain():
    # 3e + i u: f* f has symbol 10 - 6 sin(t), spectrum [4, 16]; the FK
    # determinant is the Mahler measure of the symbol, log 3
    f = G.ring_element(Z1, {(0,): 3 + 0j, (1,): 1j})
    val, bound = G.fk_poly_trace(f, (4, 16), 30)
    assert abs(val - math.log(3)) <= bound + 1e-12


def test_poly_trace_warns_only_when_interval_misses_spectrum():
    # F3* F3 has spectrum [1, 25]; on [3, 25] the traces of the scaled
    # Chebyshev polynomials reach about 1.05 at degree 4
    with pytest.warns(UserWarning, match="exceed 1"):
        G.fk_poly_trace(F3, (3, 25), 4)
    cert = G.certify_invertible(F3, "positive-gap")
    enclosing = [
        (F3, (1, 25), 40),
        (F3, (1, 25), 60),
        (zpoly({0: 4, 1: 1}), (9, 25), 30),
        (G.ring_element(Z1, {(0,): 3 + 0j, (1,): 1j}), (4, 16), 30),
        (F3, G.poly_trace_interval(cert, F3), 40),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, interval, degree in enclosing:
            G.fk_poly_trace(f, interval, degree)


def test_poly_trace_interval_from_certificate():
    cert = G.certify_invertible(F3, "positive-gap")
    a, b = G.poly_trace_interval(cert, F3)
    assert 0 < a < 1 <= 25 < b + 1e-9
    val, bound = G.fk_poly_trace(F3, (a, b), 40)
    assert abs(val - MAHLER_3UU) <= bound


# ---------------------------------------------------------------------- perturbed compressions

def test_build_perturbed_compression_example():
    F = window_range(10)
    tile = window_range(5)
    pc = G.build_perturbed_compression(F3, F, [tile], 0.8)
    # K_f = {-1,0,1}: tile interior is {1,2,3}, so the defect is at most
    # |F \ F'| = 4 (two placements cover everything)
    assert pc.rank_defect <= 4
    assert pc.denominator >= 1
    for t in pc.transfers:
        assert t.norm <= 2.0 + 1e-9
        assert t.inverse_norm <= 2.0 + 1e-9
    # integrality: M * (every matrix entry) is an integer
    for row in pc.matrix:
        for x in row:
            assert (x * pc.denominator).denominator == 1
    # S is invertible by construction
    assert math.isfinite(G.logabsdet(pc.to_float()))


def test_build_perturbed_compression_identity_symbol():
    F = window_range(10)
    tile = window_range(5)
    pc = G.build_perturbed_compression(G.identity_element(Z1), F, [tile], 0.8)
    assert math.exp(G.logabsdet(pc.to_float())) == pytest.approx(1.0, rel=1e-12)
    assert pc.rank_defect == 0


def test_build_perturbed_compression_interior_violation():
    F = window_range(10)
    thin = window_range(2)  # interior of {0,1} under K={-1,0,1} is empty
    with pytest.raises(DomainError, match="interior"):
        G.build_perturbed_compression(F3, F, [thin], 0.1)


def test_build_perturbed_compression_randomized_z2():
    rng = random.Random(2024)
    f = G.ring_element(Z2, {(0, 0): 5, (1, 0): 1, (0, 1): -1})
    F = G.window_from_coords(Z2, [(i, j) for i in range(6) for j in range(6)])
    tile = G.window_from_coords(Z2, [(i, j) for i in range(4) for j in range(4)])
    pc = G.build_perturbed_compression(f, F, [tile], 1.5)
    interior_size = 4  # {1,2}^2 under the cross kernel
    placed = len(pc.tiling.placements)
    assert pc.rank_defect <= len(F) - placed * interior_size
    for t in pc.transfers:
        assert t.norm <= 2.0 and t.inverse_norm <= 2.0
    for row in pc.matrix:
        for x in row:
            assert (x * pc.denominator).denominator == 1
    # integer test vectors map to integer images under M * transfer columns
    S = pc.to_float()
    assert math.isfinite(G.logabsdet(S))


# ---------------------------------------------------------------------- perturbation study

def test_perturbation_study_delta_zero_identical():
    cert = G.certify_invertible(F3, "positive-gap")
    sch = [G.folner_window(Z1, n) for n in (5, 20)]
    a = G.perturbation_study(F3, sch, 0.0, seed=3, certificate=cert)
    b = G.fk_finite_sections(F3, sch, certificate=cert)
    assert a.values() == b.values()


def test_perturbation_study_seed_determinism():
    cert = G.certify_invertible(F3, "positive-gap")
    sch = [G.folner_window(Z1, 50)]
    a = G.perturbation_study(F3, sch, 0.05, seed=11, certificate=cert)
    b = G.perturbation_study(F3, sch, 0.05, seed=11, certificate=cert)
    assert a.values() == b.values()


def test_perturbation_study_rejects_large_delta():
    with pytest.raises(DomainError):
        G.perturbation_study(F3, [window_range(4)], 0.2, assume_invertible=True)
