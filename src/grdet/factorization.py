"""The factorization layer: one place that eliminates a matrix.

factor(M) takes a CompressionMatrix, a dense array or a scipy sparse matrix
and sends it, as one canonical CSC matrix (a compression as its to_csc
view), to SuperLU with equilibration off, since its row and column scaling
would change the determinant.  Every pattern is ordered by minimum degree on
A^T + A, with diagonal pivots preferred down to a threshold of 0.1.
Non-finite entries are refused.

Logs of pivot magnitudes are summed, so window sizes in the thousands cannot
overflow.  Singularity is decided relative to the matrix: a factorization
whose smallest pivot is at most 16 n eps times its largest is numerically
singular.  For exact-integer input that flag is then settled exactly where
it can be: a structural-rank deficit proves the matrix singular, and a
nonzero determinant modulo one of a few primes below 2^31 proves it
nonsingular (tried up to n = 512).  A compression's exact triples are read
only then: its index arrays give the pattern, and the residues modulo p are
one gather of its coefficients' residues.  Whatever stays flagged reports
log|det| = -inf.  A matrix proved nonsingular whose float elimination met an
exactly zero pivot raises ScaleExceeded, since float64 cannot read its
determinant.

scipy.sparse is imported where it is used, so that a process that never
factors (the exact Smith and dual routes) loads no scipy.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

import numpy as np

from .errors import DomainError, ScaleExceeded
from . import ring

# the dense modular elimination of the residue proof is tried up to this size
_PROOF_MAX_N = 512
# Eliminating a singular matrix leaves a last pivot of about n eps times the
# largest: random integer matrices of rank n - 1 (n = 20..200) reached 0.92 n
# eps.  A pivot below 16 n eps has lost all but a few bits in any case.
_PIVOT_RTOL = 16 * sys.float_info.epsilon
_PROOF_PRIMES = 3
# SuperLU's column ordering: minimum degree on A^T + A
_ORDERING = "MMD_AT_PLUS_A"


class Factorization:
    """The SuperLU factors of a square matrix and how they were obtained.

    ordering is SuperLU's column ordering; pivot_ratio is the smallest pivot
    magnitude over the largest (0.0 when a pivot is zero or SuperLU gave
    up); dtype is the float or complex type of the factored matrix.  proof
    names the exact argument that settled a numerically singular flag
    ("structural-rank" or "det-mod-p"), or is None when the pivots alone
    decided.
    """

    __slots__ = ("n", "nnz", "dtype", "pivot_ratio", "singular", "proof", "logabsdet",
                 "_factors")
    ordering = _ORDERING

    def __init__(self, A, factors, pivots, logabsdet, exact):
        self.n = n = A.shape[0]
        self.nnz = A.nnz
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
            self.proof = _settle_exactly(n, *exact)
            self.singular = self.proof != "det-mod-p"
            if not self.singular and not math.isfinite(logabsdet):
                raise ScaleExceeded("det is nonzero modulo a prime, but its float64 "
                                    "elimination met an exactly zero pivot")
        self.logabsdet = -math.inf if self.singular else logabsdet

    @property
    def nnz_lu(self) -> int:
        """Stored entries of L and U, L's unit diagonal included."""
        return 0 if self._factors is None else self._factors.L.nnz + self._factors.U.nnz

    def stats(self) -> dict:
        return {
            "ordering": self.ordering, "n": self.n, "nnz": self.nnz, "nnz_lu": self.nnz_lu,
            "pivot_ratio": self.pivot_ratio, "singular": self.singular, "proof": self.proof,
        }

    def solve(self, v, trans: str = "N") -> np.ndarray:
        """x with M x = v ("N"), M^T x = v ("T") or M^H x = v ("H")."""
        if trans not in ("N", "T", "H"):
            raise DomainError(f"trans must be one of N, T, H, not {trans!r}")
        if self._factors is None:
            raise DomainError("no factors to solve with: the elimination broke down")
        return self._factors.solve(v, trans=trans)


def factor(M) -> Factorization:
    """Factor a CompressionMatrix, a dense array or a scipy sparse matrix."""
    import scipy.sparse as sp   # on first use, so that import grdet loads no scipy

    if hasattr(M, "to_csc"):  # a CompressionMatrix (sections imports this module)
        exact = (M.rows, M.cols, M.coeffs, M.term) if M.domain == ring.INT else None
        A = M.to_csc()
    else:
        A = M if sp.issparse(M) else np.asarray(M)
        if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
            raise DomainError("expected a square matrix")
        if A.dtype == object:  # Fractions or big ints: scipy.sparse holds no objects
            A = A.astype(np.float64)
        A = sp.csc_matrix(A, copy=True)  # sum_duplicates works in place
        A.sum_duplicates()
        exact = None
        if A.dtype.kind in "iu":  # in a compression's layout, explicit zeros left out
            coo = A.tocoo()
            keep = coo.data != 0
            coeffs, term = np.unique(coo.data[keep], return_inverse=True)
            exact = (coo.row[keep], coo.col[keep], coeffs, term.reshape(-1))
        A = A.astype(np.complex128 if np.iscomplexobj(A) else np.float64, copy=False)
    if not np.isfinite(A.data).all():
        raise DomainError("matrix entries must be finite")
    return _superlu(A, exact)


def _superlu(A, exact) -> Factorization:
    """SuperLU's factors of the square CSC matrix A."""
    import scipy.sparse as sp

    if A.shape[0] == 0:
        return Factorization(A, None, None, 0.0, None)
    try:
        lu = sp.linalg.splu(A, permc_spec=_ORDERING, diag_pivot_thresh=0.1,
                            options=dict(Equil=False, SymmetricMode=True))
    except RuntimeError:  # SuperLU meets an exactly zero pivot column
        return Factorization(A, None, None, -math.inf, exact)
    d = np.abs(lu.U.diagonal())
    with np.errstate(divide="ignore"):
        logdet = float(np.sum(np.log(d)))
    return Factorization(A, lu, d, logdet, exact)


# ---------------------------------------------------------------------------
# exact decisions for integer matrices

def _settle_exactly(n: int, rows, cols, coeffs, term) -> Optional[str]:
    """Settle a numerical singularity flag on the integer matrix whose nonzero
    entry (rows[k], cols[k]) is coeffs[term[k]]: "structural-rank" proves it
    singular, "det-mod-p" proves it nonsingular, None leaves it flagged.
    """
    import scipy.sparse as sp

    pattern = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    if sp.csgraph.structural_rank(pattern) < n:
        return "structural-rank"
    if n > _PROOF_MAX_N:
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
