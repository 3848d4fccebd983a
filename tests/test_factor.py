import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import grdet as G
from grdet import det, factorization, ring
from grdet.errors import DomainError, ScaleExceeded

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)
H3 = G.heisenberg3()

X, XI, Y, YI = (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)
E3 = (0, 0, 0)
H3_SYMBOLS = {
    "sa": G.ring_element(H3, {E3: 5, X: 1, XI: 1, Y: 1, YI: 1}),
    "nsa": G.ring_element(H3, {E3: 5, X: 1, XI: -1, Y: 1, YI: -1}),
    "cplx": G.ring_element(H3, {E3: 5 + 0j, X: 0.5 + 0.5j, XI: -0.25j, Y: 0.5, YI: 0.3 - 0.2j}),
}


@pytest.fixture(scope="module")
def h3_compressions():
    return {(kind, n): G.compress(f, G.folner_window(H3, n))
            for kind, f in H3_SYMBOLS.items() for n in (3, 4)}


def z1(mapping):
    return G.ring_element(Z1, {(k,): v for k, v in mapping.items()})


def z2(mapping):
    return G.ring_element(Z2, mapping)


# ---------------------------------------------------------------------- dispatch

def test_backend_dispatch():
    # every input goes to SuperLU, whatever its form, size, field or
    # symmetry: a compression and its dense view factor alike
    W = G.folner_window(Z1, 100)                             # 201 points
    for f in (z1({0: 3, 1: 1, -1: 1}), z1({0: 3, 1: 1}),
              z1({0: 3 + 0j, 1: 1j, -1: -1j}), z1({0: 3 + 0j, 1: 1j})):
        M = G.compress(f, W)
        fac, dense = G.factor(M), G.factor(M.to_float())
        assert (fac.ordering, fac.n) == (dense.ordering, dense.n) == ("MMD_AT_PLUS_A", 201)
        assert fac.dtype == dense.dtype == (np.complex128 if f.domain == ring.COMPLEX
                                            else np.float64)
        assert fac.logabsdet == pytest.approx(dense.logabsdet, rel=1e-12)
    # density does not matter either: a 600-point compression of density 0.27
    rng = np.random.default_rng(3)
    C600 = G.cyclic_product([600])
    shifts = rng.choice(np.arange(1, 600), size=159, replace=False)
    h = G.ring_element(C600, {(0,): 1000, **{(int(s),): int(rng.choice([-1, 1])) for s in shifts}})
    M = G.compress(h, G.folner_window(C600, 1))
    assert M.nnz == 160 * 600
    _, expected = np.linalg.slogdet(M.to_float())
    assert G.factor(M).logabsdet == pytest.approx(expected, rel=1e-9)
    assert not hasattr(G.factor(np.eye(3)), "backend")


def test_symmetric_pattern_picks_minimum_degree_ordering():
    sym = [
        G.compress(z1({0: 3, 1: 1, -1: 1}), G.folner_window(Z1, 300)),
        G.compress(z2({(0, 0): 5, (1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}),
                   G.folner_window(Z2, 16)),
    ] + [G.compress(f, G.folner_window(H3, 3)) for f in H3_SYMBOLS.values()]
    for M in sym:
        assert G.factor(M).ordering == "MMD_AT_PLUS_A"
    # supports not closed under inverse have non-symmetric patterns; minimum
    # degree on A^T + A fills no more than COLAMD on them
    other = [
        G.compress(z2({(0, 0): 6, (1, 0): 1, (0, -1): -1, (-1, 1): 1, (1, 1): 1}),
                   G.folner_window(Z2, 10)),                  # 441 points
        G.compress(z1({1: 1}), G.folner_window(Z1, 300)),           # the shift u
    ]
    window, shift = facs = [G.factor(M) for M in other]
    for M, fac in zip(other, facs):
        A = M.to_csc()
        assert (A != A.T).nnz > 0
        assert fac.ordering == "MMD_AT_PLUS_A"
    colamd = spla.splu(other[0].to_csc(), permc_spec="COLAMD", options=dict(Equil=False))
    assert window.nnz_lu <= colamd.L.nnz + colamd.U.nnz
    _, dense = np.linalg.slogdet(other[0].to_float())
    assert not window.singular
    assert window.logabsdet == pytest.approx(dense, rel=1e-12)
    # u's compression has an empty column, so either ordering stops at a
    # zero pivot and the structural rank settles it
    with pytest.raises(RuntimeError):
        spla.splu(other[1].to_csc(), permc_spec="COLAMD", options=dict(Equil=False))
    assert (shift.singular, shift.proof, shift.nnz_lu) == (True, "structural-rank", 0)


@pytest.mark.parametrize("kind", sorted(H3_SYMBOLS))
@pytest.mark.parametrize("n", [3, 4])
def test_h3_logabsdet_matches_dense_lu(h3_compressions, kind, n):
    M = h3_compressions[kind, n]
    fac = G.factor(M)
    assert not fac.singular
    _, dense = np.linalg.slogdet(M.to_float())
    assert fac.logabsdet == pytest.approx(dense, rel=1e-12)
    assert G.logabsdet(M) == fac.logabsdet


def test_h3_minimum_degree_fill(h3_compressions):
    M = h3_compressions["sa", 4]
    fac = G.factor(M)
    colamd = spla.splu(M.to_csc(), permc_spec="COLAMD", options=dict(Equil=False))
    assert fac.nnz_lu <= 0.6 * (colamd.L.nnz + colamd.U.nnz)


def test_stats_report_the_factorization():
    fac = G.factor(G.compress(z1({0: 3, 1: 1, -1: 1}), G.folner_window(Z1, 300)))
    st = fac.stats()
    assert st["ordering"] == "MMD_AT_PLUS_A" and "backend" not in st
    assert (st["n"], st["nnz"]) == (601, 3 * 601 - 2)
    assert st["nnz_lu"] >= st["nnz"]
    assert 0.0 < st["pivot_ratio"] <= 1.0
    assert st["singular"] is False and st["proof"] is None
    # a dense array is factored the same way; L keeps its unit diagonal
    dense = G.factor(np.diag([2.0, 8.0])).stats()
    assert (dense["ordering"], dense["nnz_lu"], dense["pivot_ratio"]) == ("MMD_AT_PLUS_A", 4, 0.25)


# ---------------------------------------------------------------------- solves

@pytest.mark.parametrize("trans", ["N", "T", "H"])
def test_solve_matches_numpy_on_every_backend(trans):
    # Hermitian positive-definite, general and sparse input all solve through
    # SuperLU
    rng = np.random.default_rng(5)
    n = 40
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    hpd = B @ B.conj().T + n * np.eye(n)
    general = B + 2 * n * np.eye(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    op = {"N": lambda A: A, "T": lambda A: A.T, "H": lambda A: A.conj().T}[trans]
    for A in (hpd, general, sp.csc_matrix(general)):
        fac = G.factor(A)
        dense = A.toarray() if sp.issparse(A) else A
        assert np.allclose(fac.solve(v, trans=trans), np.linalg.solve(op(dense), v),
                           rtol=1e-10, atol=1e-12)
    with pytest.raises(DomainError):
        G.factor(hpd).solve(v, trans="C")


def test_sigma_min_sparse_and_dense_agree():
    f = z1({0: 3, 1: 1, -2: 1})
    M = G.compress(f, G.folner_window(Z1, 300))
    sparse = G.sigma_min_estimate(M)
    dense = G.sigma_min_estimate(M.to_float())
    exact = np.linalg.svd(M.to_float(), compute_uv=False).min()
    assert sparse == pytest.approx(exact, rel=1e-12)
    assert dense == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------- singularity

def _rank_deficient(rng, n):
    """A random integer n x n matrix of rank n - 1: one column is an integer
    combination of the others."""
    A = rng.integers(-9, 10, size=(n, n))
    j = int(rng.integers(n))
    A[:, j] = np.delete(A, j, axis=1) @ rng.integers(-3, 4, size=n - 1)
    return A


def test_rank_deficient_integer_matrices_are_singular():
    # an absolute pivot threshold gave almost all of these a finite log|det|
    rng = np.random.default_rng(20260)
    for _ in range(40):
        n = int(rng.integers(20, 201))
        A = _rank_deficient(rng, n)
        assert G.logabsdet(A) == -math.inf, n
        assert G.logabsdet(A.astype(np.float64)) == -math.inf, n
        # full structural rank, and det = 0 modulo every prime tried
        assert G.factor(A).proof is None


def test_modular_residue_proves_badly_scaled_integer_matrix_nonsingular():
    fac = G.factor(np.diag([1, 10**17]))
    assert fac.pivot_ratio < 1e-16
    assert (fac.singular, fac.proof) == (False, "det-mod-p")
    assert fac.logabsdet == pytest.approx(17 * math.log(10), rel=1e-15)
    # the same matrix in floats has no exact argument: the pivots decide
    assert G.logabsdet(np.diag([1.0, 1e17])) == -math.inf


def test_zero_matrix_is_singular():
    fac = G.factor(np.zeros((3, 3)))
    assert (fac.singular, fac.logabsdet, fac.pivot_ratio) == (True, -math.inf, 0.0)
    assert G.logabsdet(np.zeros((3, 3), dtype=np.int64)) == -math.inf
    assert G.factor(np.zeros((3, 3), dtype=np.int64)).proof == "structural-rank"


@pytest.mark.parametrize("n", [150, 400])   # both within the residue proof's size cap
def test_shift_sections_settle_by_structural_rank(monkeypatch, n):
    def no_modular_elimination(*args):
        raise AssertionError("modular elimination reached")

    monkeypatch.setattr(factorization, "_det_nonzero_mod", no_modular_elimination)
    u = z1({1: 1})
    F = G.folner_window(Z1, n)
    fac = G.factor(G.compress(u, F))
    assert (fac.singular, fac.proof, fac.logabsdet) == (True, "structural-rank", -math.inf)
    assert G.sigma_min_estimate(G.compress(u, F)) == 0.0
    # unit columns leave a partial permutation matrix: singular ones are
    # structurally singular, the others have |det| = 1
    values = [G.perturbation_study(u, [F], 0.02, seed=seed, assume_invertible=True).values()[0]
              for seed in range(4)]
    assert set(values) <= {-math.inf, 0.0}


def test_integer_compressions_settle_by_residues_of_their_coefficients(monkeypatch):
    # f = 1 + 10^17 u has det f_F = 1, but its pivots lie 10^170 apart; the
    # residues come from the coefficients, a perturbation's appended ones too
    f = z1({0: 1, 1: 10 ** 17})
    M = G.compress(f, G.folner_window(Z1, 5))
    _, kernel = ring.l1_norm_and_kernel(f)
    P = det._unit_columns(M, kernel, 0.1, 0)
    assert len(P.coeffs) == len(M.coeffs) + 1
    for A in (M, P):
        fac = G.factor(A)
        assert fac.pivot_ratio <= fac.n * factorization._PIVOT_RTOL   # flagged
        assert (fac.singular, fac.proof) == (False, "det-mod-p")
        assert fac.logabsdet == G.factor(np.array(A.to_int_rows())).logabsdet
    # singular with full structural rank, so no residue may prove them
    # nonsingular: 2 + 3u - 5u^2 over Z/7 vanishes at u = 1, and
    # (1 - u + u^2)(3 + u) over Z/30 at the primitive sixth roots of unity.
    # Equal or rotated coefficients would give nonsingular matrices.  SuperLU
    # meets an exactly zero pivot on the Z/7 one and leaves a tiny nonzero
    # last pivot on the Z/30 one; the residue proof runs on both, in either
    # form, and fails for every prime
    primes = []

    def spy(n, rows, cols, residues, p):
        primes.append(p)
        return det_nonzero_mod(n, rows, cols, residues, p)

    det_nonzero_mod = factorization._det_nonzero_mod
    monkeypatch.setattr(factorization, "_det_nonzero_mod", spy)
    for m, coeffs, zero_pivot in ((7, (2, 3, -5), True), (30, (3, -2, 2, 1), False)):
        C = G.cyclic_product([m])
        g = G.ring_element(C, {(k,): v for k, v in enumerate(coeffs)})
        M = G.compress(g, G.folner_window(C, m))
        for A in (M, np.array(M.to_int_rows())):
            primes.clear()
            fac = G.factor(A)
            assert (fac.pivot_ratio == 0.0) == zero_pivot
            assert (fac.singular, fac.proof) == (True, None)
            assert len(primes) == factorization._PROOF_PRIMES


def test_proved_nonsingular_with_a_zero_float_pivot_raises():
    # 2^60 + 1 + 2^60 g over Z/2 has det (2^60 + 1)^2 - 2^120 = 2^61 + 1, but
    # float64 rounds both entries to 2^60 and the elimination meets an exactly
    # zero pivot: the residues prove it nonsingular, and -inf would be wrong
    C2 = G.cyclic_product([2])
    h = G.ring_element(C2, {(0,): 2 ** 60 + 1, (1,): 2 ** 60})
    F = G.folner_window(C2, 1)
    M = G.compress(h, F)
    assert G.det_exact(M.to_int_rows()) == 2 ** 61 + 1
    with pytest.raises(ScaleExceeded):
        G.logabsdet(M)
    with pytest.raises(ScaleExceeded):
        G.fk_finite_sections(h, [F], assume_invertible=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_refused(bad):
    for A in (np.array([[1.0, bad], [0.0, 2.0]]), sp.csr_matrix([[1.0, bad], [0.0, 2.0]]),
              [[1.0, bad], [0.0, 2.0]]):
        with pytest.raises(DomainError, match="finite"):
            G.logabsdet(A)
    f = z1({0: bad, 1: 1.0})
    F = G.folner_window(Z1, 25)                              # 51 points: Lanczos
    M = G.compress(f, F)
    for call in (G.logabsdet, G.sigma_min_estimate):
        with pytest.raises(DomainError, match="finite"):
            call(M)
    with pytest.raises(DomainError, match="finite"):
        G.fk_finite_sections(f, [F], assume_invertible=True)


def test_integer_sparse_input_settles_like_dense():
    # integer scipy input goes to SuperLU and keeps its exact decisions:
    # structural rank, det mod p, or neither
    rng = np.random.default_rng(11)
    cases = [np.zeros((3, 3), dtype=np.int64), np.diag([1, 10**17]), _rank_deficient(rng, 30),
             np.array([[2, 1], [1, 3]])]
    for A in cases:
        dense, sparse = G.factor(A), G.factor(sp.csr_matrix(A))
        assert (sparse.singular, sparse.proof) == (dense.singular, dense.proof)
        assert sparse.logabsdet == pytest.approx(dense.logabsdet, rel=1e-12)
    assert [G.factor(A).proof for A in cases] == ["structural-rank", "det-mod-p", None, None]
    # duplicates that cancel leave an explicit zero, which carries no pattern
    cancelled = sp.coo_matrix(([1, 5, -5], ([0, 1, 1], [0, 1, 1])), shape=(2, 2))
    assert G.factor(cancelled).proof == "structural-rank"


def test_import_leaves_scipy_linalg_unloaded():
    # no module of grdet imports scipy.linalg; the first splu loads it.  Some
    # older scipy releases load it with scipy.sparse itself, so the check is
    # that grdet adds nothing to what scipy.sparse loads
    before, after = _python_prints("import sys, scipy.sparse; before = 'scipy.linalg' in sys.modules; "
                                   "import grdet; print(before, 'scipy.linalg' in sys.modules)")
    assert after == before


def test_exact_routes_leave_scipy_unloaded():
    # factorization and sections import scipy.sparse where they use it, so
    # importing grdet and the exact routes load no scipy; factor does
    code = ("import sys; loaded = lambda: 'scipy.sparse' in sys.modules; "
            "import grdet as G; seen = [loaded()]; "
            "G.snf([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]); seen.append(loaded()); "
            "desc = G.cyclic_product([6]); "
            "G.solve_dual_finite(G.ring_element(desc, {(0,): 3, (1,): 1}), desc); "
            "seen.append(loaded()); G.factor([[2.0]]); seen.append(loaded()); print(*seen)")
    assert _python_prints(code) == ["False", "False", "False", "True"]


def _python_prints(code: str) -> list:
    """The words a fresh interpreter with grdet's src on its path prints."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()
