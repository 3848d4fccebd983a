import math
import random

import numpy as np
import pytest

import grdet as G
from grdet import det, sections
from grdet.errors import DomainError

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)
H3 = G.heisenberg3()
C3 = G.cyclic_product([3])


def zpoly(mapping, desc=Z1):
    return G.ring_element(desc, {(k,) if isinstance(k, int) else k: v for k, v in mapping.items()})


def window_range(n):
    return G.window_from_coords(Z1, [(i,) for i in range(n)])


def test_compress_examples():
    f = zpoly({0: 3, 1: 1, -1: 1})
    M = G.compress(f, window_range(3))
    assert M.to_int_rows() == [[3, 1, 0], [1, 3, 1], [0, 1, 3]]

    e = G.identity_element(Z1)
    I = G.compress(e, window_range(4))
    assert I.to_int_rows() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

    f3 = G.ring_element(C3, {(0,): 2, (1,): 1})
    M3 = G.compress(f3, G.folner_window(C3, 1))
    assert M3.to_int_rows() == [[2, 0, 1], [1, 2, 0], [0, 1, 2]]


def test_compress_adjoint_is_conjugate_transpose():
    rng = random.Random(5)
    for _ in range(25):
        terms = {(rng.randint(-3, 3),): rng.randint(-4, 4) for _ in range(4)}
        f = G.ring_element(Z1, terms)
        if not f:
            continue
        F = window_range(rng.randint(2, 8))
        A = np.array(G.compress(f, F).to_int_rows())
        B = np.array(G.compress(G.adjoint(f), F).to_int_rows())
        assert np.array_equal(B, A.T)
    # complex coefficients conjugate as well
    fc = G.ring_element(Z1, {(0,): 2 + 1j, (1,): 3 - 2j})
    F = window_range(4)
    A = G.compress(fc, F).to_float()
    B = G.compress(G.adjoint(fc), F).to_float()
    assert np.allclose(B, A.conj().T)


def test_compress_sparsity_flag():
    f = zpoly({0: 3, 1: 1, -1: 1})
    small = G.compress(f, window_range(3))
    assert small.nnz == 7
    big = G.compress(f, window_range(64))
    assert big.nnz <= len(f) * 64


def test_compress_exact_rows_match_csc():
    f = zpoly({0: 3, 1: 1, -1: 1})
    lattice = G.compress(zpoly({(0, 0): 6, (1, 0): 1, (0, -1): -1, (-1, 1): 1}, Z2),
                         G.folner_window(Z2, 4))
    C7 = G.cyclic_product([7])
    cyclic = G.compress(zpoly({0: 3, 1: 1, -1: 1, 3: 2}, C7), G.folner_window(C7, 1))
    # two columns replaced; their new triples come last, rows descending
    replaced = det._replace_columns(lattice, [40, 3, 12, 0], [5, 5, 30, 30], [7, -1, 2, 4])
    for M in (G.compress(f, window_range(3)), lattice, cyclic, replaced):
        csc = M.to_csc()
        assert np.array_equal(csc.toarray(), np.array(M.to_int_rows(), dtype=float))
        # the order lexsort by (column, row) gives
        order = np.lexsort((M.rows, M.cols))
        assert np.array_equal(csc.indices, M.rows[order])
        assert np.array_equal(csc.data, np.array(M.coeffs, dtype=float)[M.term[order]])
        assert np.array_equal(csc.indptr, np.searchsorted(M.cols[order], np.arange(M.n + 1)))


def test_views_are_built_fresh():
    f = zpoly({0: 3, 1: 1, -1: 1})
    M = G.compress(f, G.folner_window(Z1, 3))
    exact = np.array(M.to_int_rows(), dtype=float)
    before = G.logabsdet(M)
    M.to_float()[:] *= 2
    M.to_csc().data[:] = 0
    assert np.array_equal(M.to_float(), exact)
    assert np.array_equal(M.to_csc().toarray(), exact)
    assert G.logabsdet(M) == before


def test_value_types_refuse_assignment_and_deletion():
    f = zpoly({0: 3, 1: 1, -1: 1})
    W = G.folner_window(Z1, 2)
    M = G.compress(f, W)
    g = G.GroupElement(Z1, (1,))
    for obj, name in ((g, "coords"), (g, "descriptor"), (W, "rows"), (W, "coords"),
                      (f, "terms"), (f, "domain"), (M, "rows"), (M, "coeffs")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert g == G.GroupElement(Z1, (1,)) and hash(g) == hash(G.GroupElement(Z1, (1,)))
    assert len(W) == 5 and W == G.folner_window(Z1, 2)
    assert f == zpoly({0: 3, 1: 1, -1: 1})
    assert M.to_int_rows() == G.compress(f, W).to_int_rows()


def test_operator_norm_bounded_by_l1():
    rng = random.Random(17)
    for _ in range(20):
        terms = {(rng.randint(-3, 3),): rng.randint(-4, 4) for _ in range(4)}
        f = G.ring_element(Z1, terms)
        if not f:
            continue
        M = G.compress(f, window_range(12)).to_float()
        smax = float(np.linalg.svd(M, compute_uv=False)[0])
        assert smax <= float(G.l1_norm(f)) + 1e-9


def test_certify_torus_min():
    f = zpoly({0: 3, 1: 1, -1: 1})
    cert = G.certify_invertible(f, "torus-min", grid_n=64)
    assert cert.certified
    # min of 3 + 2cos is 1; the slack is 4*pi/128 < 0.1
    assert 0.9 < cert.sigma_lower <= 1.0
    assert cert.inverse_norm_upper >= 1.0

    # not certifiable off the lattice; never an exception
    h = G.ring_element(H3, {(0, 0, 0): 5})
    cert2 = G.certify_invertible(h, "torus-min")
    assert not cert2.certified and cert2.reason


def test_certify_torus_min_checks_its_grid_size():
    f = zpoly({0: 3, 1: 1, -1: 1})
    for grid_n in (3.7, 16.0, True, "16"):
        with pytest.raises(DomainError, match="grid size must be an integer"):
            G.certify_invertible(f, "torus-min", grid_n=grid_n)
    assert (G.certify_invertible(f, "torus-min", grid_n=np.int64(16))
            == G.certify_invertible(f, "torus-min", grid_n=16))


def test_certify_torus_min_monotone_in_grid():
    f = zpoly({0: 3, 1: 1, -1: 1})
    bounds = [G.certify_invertible(f, "torus-min", grid_n=N).sigma_lower for N in (16, 32, 64, 128)]
    assert all(b >= a for a, b in zip(bounds, bounds[1:]))


def test_certify_torus_min_counts_evaluation_error():
    # the bound subtracts the rounding error of the computed grid values as
    # well as the Lipschitz slack, so it lies below the slack-only bound
    examples = [
        zpoly({0: 3, 1: 1, -1: 1}),
        zpoly({0: 5, 1: 2, -3: -1, 2: 1}),
        zpoly({(0, 0): 7, (1, 0): 1, (0, -1): -1, (1, 1): 1}, Z2),
    ]
    for f in examples:
        for N in (16, 64, 256):
            cert = G.certify_invertible(f, "torus-min", grid_n=N)
            w = cert.witness
            assert cert.certified
            assert 0 < w["eval_error"] < 1e-12
            assert cert.sigma_lower < sections._down(w["grid_min"] - w["slack"])


def test_certify_l1_neumann():
    f = zpoly({0: 3, 1: 1})
    cert = G.certify_invertible(f, "l1-neumann")
    assert cert.certified
    assert cert.inverse_norm_upper == pytest.approx(0.5, abs=1e-12)
    bad = zpoly({0: 1, 1: 2})
    assert not G.certify_invertible(bad, "l1-neumann").certified


def test_certify_positive_gap():
    f = G.ring_element(H3, {(0, 0, 0): 5, (1, 0, 0): 1, (-1, 0, 0): 1, (0, 1, 0): 1, (0, -1, 0): 1})
    cert = G.certify_invertible(f, "positive-gap")
    assert cert.certified
    assert cert.sigma_lower == pytest.approx(1.0, abs=1e-12)
    assert cert.witness["spectrum_low"] == pytest.approx(1.0, abs=1e-12)
    assert cert.witness["spectrum_high"] == pytest.approx(9.0, abs=1e-12)
    # not self-adjoint: not certifiable
    g = zpoly({0: 5, 1: 1})
    assert not G.certify_invertible(g, "positive-gap").certified


def test_sigma_min_examples():
    assert G.sigma_min_estimate(np.eye(3)) == pytest.approx(1.0, rel=1e-8)
    f = zpoly({0: 3, 1: 1, -1: 1})
    M = G.compress(f, window_range(3))
    # tridiagonal Toeplitz eigenvalues 3 + 2 cos(k pi / 4)
    assert G.sigma_min_estimate(M) == pytest.approx(3 - math.sqrt(2), rel=1e-7)
    # small inputs take the dense SVD in every form
    assert G.sigma_min_estimate(M.to_csc()) == G.sigma_min_estimate(M.to_float().tolist()) \
        == G.sigma_min_estimate(M)
    assert G.sigma_min_estimate(np.zeros((2, 2))) == 0.0


def test_sigma_min_matches_svd():
    # the smallest singular vector of this tridiagonal matrix is orthogonal
    # to the all-ones vector, so an iteration started there misses it
    n = 256
    A = 4 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    # A, Z^1 compressions of 801 and 301 points and a complex 601-point one
    # are all past the dense-SVD size, so all run Lanczos on SuperLU solves,
    # whatever their form; the complex ones on the real form of the inverse
    # Gram
    M = G.compress(zpoly({0: 3, 1: 1, -2: 1}), window_range(801))
    K = G.compress(zpoly({0: 3, 1: 1, -1: -1, 2: 1}), window_range(301))
    C = G.compress(zpoly({0: 3 + 0j, 1: 1j, -2: 0.5 + 0.5j}), window_range(601))
    assert min(n, K.n) > sections._LANCZOS_NCV
    assert G.factor(C).dtype == np.complex128
    for X, dense in ((A, A), (A.astype(np.complex128), A), (M, M.to_float()),
                     (K, K.to_float()), (C, C.to_float())):
        exact = np.linalg.svd(dense, compute_uv=False).min()
        assert G.sigma_min_estimate(X) == pytest.approx(exact, rel=1e-12, abs=0)


def test_sigma_min_dominates_certificate_on_windows():
    # positive f: compressions cannot shrink the spectral gap
    f = zpoly({0: 3, 1: 1, -1: 1})
    cert = G.certify_invertible(f, "positive-gap")
    assert cert.certified
    for n in (2, 5, 9, 17):
        s = G.sigma_min_estimate(G.compress(f, window_range(n)))
        assert s >= cert.sigma_lower - 1e-9

    f2 = G.ring_element(Z2, {(0, 0): 5, (1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    cert2 = G.certify_invertible(f2, "positive-gap")
    for n in (1, 2, 3):
        s = G.sigma_min_estimate(G.compress(f2, G.folner_window(Z2, n)))
        assert s >= cert2.sigma_lower - 1e-9


def test_compress_descriptor_mismatch():
    f = zpoly({0: 1})
    with pytest.raises(G.DescriptorMismatch):
        G.compress(f, G.folner_window(C3, 1))


def test_unknown_method_raises():
    with pytest.raises(DomainError):
        G.certify_invertible(zpoly({0: 2}), "magic")
