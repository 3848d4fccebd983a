"""Finite-window compressions of convolution operators, invertibility
certificates and smallest singular values.

The compression of f to a window F is the |F| x |F| matrix with entry
(row g', col g) = f_{g' g^-1}: the matrix of "multiply by f on the left,
then restrict to F" in the basis F.  It is held as int64 index arrays
into the tuple of f's exact coefficients, taken straight from
groups.window_translates.  The dense and sparse float views are one gather
each, built fresh on every call and never cached; exact entries are built
only for the integer views and for factorization's exact singularity
proofs.

_torus_values evaluates a lattice symbol on the torus grid for both the
torus-min certificate and mahler.mahler_grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DescriptorMismatch, DomainError
from . import groups, ring
from .factorization import factor
# folner_window stays importable from here: bench/test_bench.py checks that
# tracing wraps it through this alias
from .groups import FolnerWindow, folner_window  # noqa: F401
from .ring import RingElement


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class CompressionMatrix:
    """Compression f_F stored as COO triples over int64 arrays.

    Triple k is the entry (rows[k], cols[k]) with value coeffs[term[k]]:
    coeffs is the tuple of f's exact coefficients in sorted_terms order,
    extended by whatever values a perturbation puts in.  Every float view is
    one gather of coeffs through term, built fresh on each call, so writing
    into a view leaves the compression as it was; exact per-entry values are
    built only by to_exact_rows.  factorization.factor eliminates the sparse
    view (to_csc) with SuperLU at every size.
    """

    window: FolnerWindow
    rows: np.ndarray
    cols: np.ndarray
    term: np.ndarray
    coeffs: tuple
    domain: str

    @property
    def n(self) -> int:
        return len(self.window)

    @property
    def nnz(self) -> int:
        return len(self.term)

    def to_exact_rows(self):
        zero = ring._coerce(0, self.domain)
        M = [[zero] * self.n for _ in range(self.n)]
        coeffs = self.coeffs
        for r, c, t in zip(self.rows.tolist(), self.cols.tolist(), self.term.tolist()):
            M[r][c] = coeffs[t]
        return M

    def to_int_rows(self):
        if self.domain != ring.INT:
            raise DomainError("integer view requires the exact-integer domain")
        return self.to_exact_rows()

    def _float_vals(self, term) -> np.ndarray:
        dtype = np.complex128 if self.domain == ring.COMPLEX else np.float64
        return np.array(self.coeffs, dtype=dtype)[term]

    def to_float(self) -> np.ndarray:
        vals = self._float_vals(self.term)
        M = np.zeros((self.n, self.n), dtype=vals.dtype)
        M[self.rows, self.cols] = vals
        return M

    def to_csc(self):
        """The sparse float view, a scipy.sparse.csc_matrix in canonical form:
        rows ascending in each column."""
        import scipy.sparse as sp   # on first use, so that import grdet loads no scipy

        # compress emits the triples column by column, and on lattice and H3
        # windows with rows ascending too, so the stable sort is linear there
        order = np.argsort(self.cols * self.n + self.rows, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.cols, minlength=self.n), out=indptr[1:])
        return sp.csc_matrix((self._float_vals(self.term[order]), self.rows[order], indptr),
                             shape=(self.n, self.n))


def compress(f: RingElement, F: FolnerWindow) -> CompressionMatrix:
    """The matrix of the left-convolution by f cut down to the window F.

    Triples come column by column, and within a column in f's sorted term
    order.
    """
    if f.descriptor != F.descriptor:
        raise DescriptorMismatch("element and window over different groups")
    terms = f.sorted_terms()
    pos = groups.window_translates(F, [g.coords for g, _ in terms]).T
    hit = pos >= 0
    cols, term = np.nonzero(hit)
    return CompressionMatrix(F, pos[hit], cols, term, tuple(v for _, v in terms), f.domain)


# ---------------------------------------------------------------------------
# invertibility certificates

@dataclass(frozen=True)
class InvertibilityCertificate:
    """A rigorous (outward-rounded) lower bound on sigma_min of f on l2.

    certified=False never claims non-invertibility; it only means this
    method could not produce a positive bound.
    """

    method: str
    certified: bool
    sigma_lower: float
    inverse_norm_upper: Optional[float]
    witness: dict = field(default_factory=dict)
    reason: Optional[str] = None


def _down(x: float) -> float:
    """Round a float a few ulps toward -inf (outward for lower bounds)."""
    for _ in range(4):
        x = math.nextafter(x, -math.inf)
    return x


def _up(x: float) -> float:
    for _ in range(4):
        x = math.nextafter(x, math.inf)
    return x


def _split_scalar_part(f: RingElement):
    c = ring.trace_identity(f)
    rest = f - ring.scale(ring.identity_element(f.descriptor, f.domain), c)
    return c, rest


def _not_certifiable(method: str, reason: str) -> InvertibilityCertificate:
    return InvertibilityCertificate(method, False, 0.0, None, {}, reason)


def _torus_values(f: RingElement, N: int) -> np.ndarray:
    """Entry k of the N^d array is sum_g f_g exp(2 pi i <g, k> / N): terms in
    sorted order, integer phases reduced mod N, accumulated in term order.
    The torus-min certificate's eval_error is derived for exactly this.
    """
    d = f.descriptor.params[0]
    axes = np.meshgrid(*([np.arange(N)] * d), indexing="ij")
    values = np.zeros(axes[0].shape, dtype=np.complex128)
    for g, v in f.sorted_terms():
        phases = sum(int(ei) * ax for ei, ax in zip(g.coords, axes)) % N
        values += complex(v) * np.exp(2j * np.pi * phases / N)
    return values


def _certify_torus_min(f: RingElement, grid_n: int) -> InvertibilityCertificate:
    desc = f.descriptor
    if desc.family != groups.LATTICE:
        return _not_certifiable("torus-min", "torus-min applies to integer lattices only")
    if not f:
        return _not_certifiable("torus-min", "zero element")
    N = groups._as_int(grid_n, "grid size")
    if N < 2:
        raise DomainError("grid size must be >= 2")
    grid_min = float(np.min(np.abs(_torus_values(f, N))))
    terms = f.sorted_terms()
    # Lipschitz slack: |f(t)-f(s)| <= 2*pi*sum |f_g|*|g|_1 * |t-s|_inf,
    # and every torus point is within half a grid spacing of the grid.
    lip = 2.0 * math.pi * float(
        sum(abs(complex(v)) * sum(abs(x) for x in g.coords) for g, v in terms)
    )
    slack = _up(lip / (2.0 * N))
    # floating-point error of each computed grid value: per term at most
    # 16 eps |c| for the phase, the complex exponential and the product, and
    # eps |f|_1 for each of the additions and the final modulus
    l1 = math.fsum(abs(complex(v)) for _, v in terms)
    eval_error = _up((len(terms) + 17) * sys.float_info.epsilon * l1)
    bound = _down(grid_min - slack - eval_error)
    witness = {
        "grid_n": N, "grid_min": grid_min, "lipschitz": lip, "slack": slack,
        "eval_error": eval_error,
    }
    if bound <= 0.0:
        return InvertibilityCertificate(
            "torus-min", False, 0.0, None, witness,
            "grid minimum minus Lipschitz slack is not positive",
        )
    return InvertibilityCertificate("torus-min", True, bound, _up(1.0 / bound), witness)


def _certify_l1_neumann(f: RingElement) -> InvertibilityCertificate:
    c, rest = _split_scalar_part(f)
    norm_rest = ring.l1_norm(rest)
    gap = abs(c) - norm_rest
    witness = {"scalar_part": c, "rest_l1": norm_rest}
    if gap <= 0:
        return InvertibilityCertificate(
            "l1-neumann", False, 0.0, None, witness,
            "need |c| > l1 norm of f - c*e",
        )
    gap_f = _down(float(gap))
    return InvertibilityCertificate("l1-neumann", True, gap_f, _up(1.0 / gap_f), witness)


def _certify_positive_gap(f: RingElement) -> InvertibilityCertificate:
    if not ring.is_self_adjoint(f):
        return _not_certifiable("positive-gap", "element is not self-adjoint")
    c, rest = _split_scalar_part(f)
    c_real = complex(c).real if f.domain == ring.COMPLEX else c
    norm_rest = ring.l1_norm(rest)
    witness = {"scalar_part": c, "rest_l1": norm_rest}
    if not (norm_rest < c_real):
        return InvertibilityCertificate(
            "positive-gap", False, 0.0, None, witness,
            "need f = c*e + r with l1 norm of r below c",
        )
    lo = _down(float(c_real - norm_rest))
    hi = _up(float(c_real + norm_rest))
    witness["spectrum_low"] = lo
    witness["spectrum_high"] = hi
    return InvertibilityCertificate("positive-gap", True, lo, _up(1.0 / lo), witness)


def certify_invertible(f: RingElement, method: str, grid_n: int = 256) -> InvertibilityCertificate:
    """Try to certify that f is invertible in the group von Neumann algebra.

    Methods: "torus-min" (lattices; symbol minimum over the torus with a
    rigorous Lipschitz slack), "l1-neumann" (dominant scalar part), and
    "positive-gap" (self-adjoint dominant scalar part; also yields a
    two-sided spectral enclosure).  Precondition failures yield a
    not-certifiable result, never a non-invertibility claim.
    """
    if method == "torus-min":
        return _certify_torus_min(f, grid_n)
    if method == "l1-neumann":
        return _certify_l1_neumann(f)
    if method == "positive-gap":
        return _certify_positive_gap(f)
    raise DomainError(f"unknown certificate method {method!r}")


# ---------------------------------------------------------------------------
# smallest singular value

# Lanczos basis size; matrices of at most this many unknowns take the dense
# SVD instead
_LANCZOS_NCV = 40


def sigma_min_estimate(M) -> float:
    """Smallest singular value: 0.0 when factorization.factor finds M
    singular, else the dense SVD (numpy) for matrices of at most
    _LANCZOS_NCV unknowns and, for every larger one, whatever its form,
    Lanczos (ARPACK eigsh from a seeded start) on (M^H M)^-1 through the
    SuperLU solves, which raises ArpackNoConvergence rather than return an
    unconverged value.
    """
    import scipy.sparse as sp   # factor has loaded it

    fac = factor(M)
    n = fac.n
    if n == 0:
        raise DomainError("empty matrix")
    if fac.singular:
        return 0.0
    if n <= _LANCZOS_NCV:
        if isinstance(M, CompressionMatrix):
            M = M.to_float()
        elif sp.issparse(M):
            M = M.toarray()
        return float(np.linalg.svd(np.asarray(M, dtype=fac.dtype), compute_uv=False)[-1])
    solve = fac.solve
    if fac.dtype == np.complex128:
        # the real symmetric form [[Re B, -Im B], [Im B, Re B]] of the
        # Hermitian B = (M^H M)^-1 has B's eigenvalues, each twice, and keeps
        # ARPACK on symmetric Lanczos rather than complex Arnoldi
        def matvec(v):
            w = solve(solve(v[:n] + 1j * v[n:], trans="H"))
            return np.concatenate([w.real, w.imag])
        size = 2 * n
    else:
        def matvec(v):
            return solve(solve(v, trans="H"))
        size = n
    inverse_gram = sp.linalg.LinearOperator((size, size), dtype=np.float64, matvec=matvec)
    v0 = np.random.default_rng(0).standard_normal(size)
    (mu,) = sp.linalg.eigsh(inverse_gram, k=1, ncv=_LANCZOS_NCV, v0=v0,
                            return_eigenvectors=False)
    return 1.0 / math.sqrt(float(mu))
