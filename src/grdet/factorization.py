"""The factorization layer: one place that eliminates a matrix.

factor(M) takes a CompressionMatrix, a dense array or a scipy sparse matrix
and is the only code that picks how it is eliminated:

  * compressions (as their to_csc view, at every size) and scipy sparse
    matrices go to SuperLU with equilibration off, since its row and column
    scaling would change the determinant.  Every pattern is ordered by
    minimum degree on A^T + A, with diagonal pivots preferred down to a
    threshold of 0.1;
  * dense arrays a caller passes in go to LAPACK: Cholesky (potrf) for
    Hermitian positive-definite input, partial-pivoting LU (getrf) otherwise.

Logs of pivot magnitudes are summed, so window sizes in the thousands cannot
overflow.  Singularity is decided relative to the matrix: a factorization
whose smallest pivot is at most 16 n eps times its largest is numerically
singular.  For exact-integer input that flag is then settled exactly where
it can be: a structural-rank deficit proves the matrix singular, and a
nonzero determinant modulo one of a few primes below 2^31 proves it
nonsingular (tried up to n = 512, on a factorization with no zero pivot).
Whatever stays flagged reports log|det| = -inf.  A compression's exact
triples are read only then: its index arrays give the pattern, and the
residues modulo p are one gather of its coefficients' residues.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas
import scipy.sparse as sp

from .errors import DomainError
from . import ring

# the dense modular elimination of the residue proof is tried up to this size
_PROOF_MAX_N = 512
# Eliminating a singular matrix leaves a last pivot of about n eps times the
# largest: random integer matrices of rank n - 1 (n = 20..200) reached 0.92 n
# eps.  A pivot below 16 n eps has lost all but a few bits in any case.
_PIVOT_RTOL = 16 * sys.float_info.epsilon
_PROOF_PRIMES = 3
_TRANS = {"N": 0, "T": 1, "H": 2}


class Factorization:
    """The factors of a square matrix and how they were obtained.

    backend is "cholesky" or "lu" for a dense array (LAPACK), "superlu" for
    a compression or a sparse matrix; ordering is "natural" for LAPACK and
    "MMD_AT_PLUS_A" (minimum degree on A^T + A) for SuperLU.  pivot_ratio
    is the smallest pivot magnitude over the largest (0.0 when a pivot is
    zero or SuperLU gave up); dtype is the float or complex type of the
    factored matrix.  proof names the exact argument that settled a
    numerically singular flag ("structural-rank" or "det-mod-p"), or is None
    when the pivots alone decided.
    """

    __slots__ = ("backend", "ordering", "n", "nnz", "dtype", "pivot_ratio", "singular",
                 "proof", "logabsdet", "_factors")

    def __init__(self, backend, ordering, A, factors, pivots, logabsdet, exact):
        self.backend = backend
        self.ordering = ordering
        self.n = n = A.shape[0]
        self.nnz = A.nnz if sp.issparse(A) else int(np.count_nonzero(A))
        self.dtype = A.dtype
        self._factors = factors
        if n == 0:
            self.pivot_ratio = 1.0
        elif pivots is None or not pivots.max() > 0.0:
            self.pivot_ratio = 0.0
        else:
            self.pivot_ratio = float(pivots.min() / pivots.max())
        self.singular = n > 0 and self.pivot_ratio <= n * _PIVOT_RTOL
        self.proof = None
        if self.singular and exact is not None:
            self.proof = _settle_exactly(n, *exact, try_modular=self.pivot_ratio > 0.0)
            self.singular = self.proof != "det-mod-p"
        self.logabsdet = -math.inf if self.singular else logabsdet

    @property
    def nnz_lu(self) -> int:
        """Stored entries of the factors: L + U, or the Cholesky triangle."""
        if self._factors is None:
            return 0
        if self.backend == "superlu":
            return self._factors.L.nnz + self._factors.U.nnz
        if self.backend == "cholesky":
            return self.n * (self.n + 1) // 2
        return self.n * self.n

    def stats(self) -> dict:
        return {
            "backend": self.backend, "ordering": self.ordering, "n": self.n,
            "nnz": self.nnz, "nnz_lu": self.nnz_lu, "pivot_ratio": self.pivot_ratio,
            "singular": self.singular, "proof": self.proof,
        }

    def solve(self, v, trans: str = "N") -> np.ndarray:
        """x with M x = v ("N"), M^T x = v ("T") or M^H x = v ("H")."""
        if trans not in _TRANS:
            raise DomainError(f"trans must be one of N, T, H, not {trans!r}")
        if self._factors is None:
            raise DomainError("no factors to solve with: the elimination broke down")
        if self.backend == "superlu":
            return self._factors.solve(v, trans=trans)
        if self.backend == "lu":
            return sla.lu_solve(self._factors, v, trans=_TRANS[trans], check_finite=False)
        # M = C C^H with C lower triangular, and M^T = conj(M); two BLAS
        # triangular solves cost less than a call of cho_solve
        v = np.asarray(v)
        if trans == "T":
            return np.conj(self.solve(np.conj(v)))
        C = self._factors
        trsv = blas.get_blas_funcs("trsv", (C, v))
        return trsv(C, trsv(C, v, lower=1), trans=2, lower=1)


def factor(M) -> Factorization:
    """Factor a CompressionMatrix, a dense array or a scipy sparse matrix."""
    if sp.issparse(M):
        _require_square(M.shape)
        A = M.tocsc()
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
        exact = None
        if A.dtype.kind in "iu":
            coo = A.tocoo()
            exact = _exact_triples(coo.row, coo.col, coo.data)
        return _superlu(A.astype(_float_dtype(A), copy=False), exact)
    if hasattr(M, "to_csc"):  # a CompressionMatrix (sections imports this module)
        exact = (M.rows, M.cols, M.coeffs, M.term) if M.domain == ring.INT else None
        return _superlu(M.to_csc(), exact)
    A = np.asarray(M)
    _require_square(A.shape)
    exact = None
    if A.dtype.kind in "iu":
        rows, cols = np.nonzero(A)
        exact = _exact_triples(rows, cols, A[rows, cols])
    return _lapack(A.astype(_float_dtype(A)), exact)


def _exact_triples(rows, cols, vals):
    """The nonzero entries of an integer array in a compression's layout:
    (rows, cols, coeffs, term) with vals[k] == coeffs[term[k]]."""
    keep = vals != 0
    coeffs, term = np.unique(vals[keep], return_inverse=True)
    return rows[keep], cols[keep], coeffs, term.reshape(-1)


def _require_square(shape):
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DomainError("expected a square matrix")


def _float_dtype(A):
    return np.complex128 if np.iscomplexobj(A) else np.float64


def _lapack(A: np.ndarray, exact) -> Factorization:
    n = A.shape[0]
    if n == 0:
        return Factorization("lu", "natural", A, None, None, 0.0, None)
    if np.array_equal(A, A.conj().T):
        try:
            C = sla.cholesky(A, lower=True, check_finite=False)
        except sla.LinAlgError:
            pass  # indefinite or singular; fall through to LU
        else:
            d = np.abs(np.diag(C))
            return Factorization("cholesky", "natural", A, C, d * d,
                                 2.0 * float(np.sum(np.log(d))), exact)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = sla.lu_factor(A, check_finite=False)
    d = np.abs(np.diag(lu))
    with np.errstate(divide="ignore"):
        logdet = float(np.sum(np.log(d)))
    return Factorization("lu", "natural", A, (lu, piv), d, logdet, exact)


def _superlu(A: sp.csc_matrix, exact) -> Factorization:
    n = A.shape[0]
    if n == 0:
        return Factorization("superlu", "natural", A, None, None, 0.0, None)
    ordering = "MMD_AT_PLUS_A"
    try:
        lu = sp.linalg.splu(A, permc_spec=ordering, diag_pivot_thresh=0.1,
                            options=dict(Equil=False, SymmetricMode=True))
    except RuntimeError:  # SuperLU meets an exactly zero pivot column
        return Factorization("superlu", ordering, A, None, None, -math.inf, exact)
    d = np.abs(lu.U.diagonal())
    with np.errstate(divide="ignore"):
        logdet = float(np.sum(np.log(d)))
    return Factorization("superlu", ordering, A, lu, d, logdet, exact)


# ---------------------------------------------------------------------------
# exact decisions for integer matrices

def _settle_exactly(n: int, rows, cols, coeffs, term, try_modular: bool) -> Optional[str]:
    """Settle a numerical singularity flag on the integer matrix whose nonzero
    entry (rows[k], cols[k]) is coeffs[term[k]]: "structural-rank" proves it
    singular, "det-mod-p" proves it nonsingular, None leaves it flagged.
    """
    pattern = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    if sp.csgraph.structural_rank(pattern) < n:
        return "structural-rank"
    if not try_modular or n > _PROOF_MAX_N:
        return None
    for p in ring._crt_primes(_PROOF_PRIMES):
        residues = np.array([int(c) % p for c in coeffs], dtype=np.int64)[term]
        if _det_nonzero_mod(n, rows, cols, residues, p):
            return "det-mod-p"
    return None


def _det_nonzero_mod(n: int, rows, cols, residues, p: int) -> bool:
    """Whether det M is nonzero modulo the prime p < 2^31 (Gaussian
    elimination over GF(p); products of two residues fit int64).
    """
    A = np.zeros((n, n), dtype=np.int64)
    np.add.at(A, (rows, cols), residues)
    A %= p
    for k in range(n):
        nz = np.flatnonzero(A[k:, k])
        if not nz.size:
            return False
        i = k + int(nz[0])
        if i != k:
            A[[k, i]] = A[[i, k]]
        m = A[k + 1:, k] * pow(int(A[k, k]), -1, p) % p
        A[k + 1:, k + 1:] = (A[k + 1:, k + 1:] - np.outer(m, A[k, k + 1:]) % p) % p
    return True
