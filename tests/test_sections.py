import math
import random

import numpy as np
import pytest

import grdet as G
from grdet import sections
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
    assert not small.is_sparse  # 7/9 density
    big = G.compress(f, window_range(64))
    assert big.is_sparse
    assert big.nnz <= len(f) * 64


def test_compress_entry_accessor():
    f = zpoly({0: 3, 1: 1, -1: 1})
    M = G.compress(f, window_range(3))
    assert M.entry(0, 0) == 3
    assert M.entry(1, 0) == 1   # f at 1 - 0
    assert M.entry(0, 2) == 0
    csr = M.to_csr()
    import numpy as np
    assert np.array_equal(csr.toarray(), np.array(M.to_int_rows(), dtype=float))


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
    assert G.sigma_min_estimate(np.zeros((2, 2))) == 0.0


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
