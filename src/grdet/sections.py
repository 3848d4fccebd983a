"""Finite-window compressions of convolution operators and invertibility
certificates.

The compression of f to a window F is the |F| x |F| matrix with entry
(row g', col g) = f_{g' g^-1}: the matrix of "multiply by f on the left,
then restrict to F" in the basis F.  Entries stay in the element's exact
scalar domain; float views are materialized on demand.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import DescriptorMismatch, DomainError
from . import groups, ring
# folner_window stays importable from here: bench/test_bench.py checks that
# tracing wraps it through this alias
from .groups import FolnerWindow, folner_window  # noqa: F401
from .ring import RingElement

SPARSE_DENSITY_CUTOFF = 0.25


class CompressionMatrix:
    """Compression f_F stored as exact COO triples.

    Kept sparse (triples only) while density < 1/4; dense views are built
    lazily either way.
    """

    __slots__ = ("window", "n", "domain", "rows", "cols", "vals", "_float_cache")

    def __init__(self, window: FolnerWindow, rows, cols, vals, domain: str):
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "n", len(window))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "_float_cache", None)

    def __setattr__(self, *_):
        raise AttributeError("CompressionMatrix is immutable")

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def density(self) -> float:
        return self.nnz / (self.n * self.n)

    @property
    def is_sparse(self) -> bool:
        return self.density < SPARSE_DENSITY_CUTOFF

    def entry(self, i: int, j: int):
        for r, c, v in zip(self.rows, self.cols, self.vals):
            if r == i and c == j:
                return v
        return ring._coerce(0, self.domain)

    def to_exact_rows(self):
        zero = ring._coerce(0, self.domain)
        M = [[zero] * self.n for _ in range(self.n)]
        for r, c, v in zip(self.rows, self.cols, self.vals):
            M[r][c] = v
        return M

    def to_int_rows(self):
        if self.domain != ring.INT:
            raise DomainError("integer view requires the exact-integer domain")
        return self.to_exact_rows()

    def to_float(self) -> np.ndarray:
        cached = self._float_cache
        if cached is not None:
            return cached
        dtype = np.complex128 if self.domain == ring.COMPLEX else np.float64
        M = np.zeros((self.n, self.n), dtype=dtype)
        for r, c, v in zip(self.rows, self.cols, self.vals):
            M[r, c] = complex(v) if dtype == np.complex128 else float(v)
        object.__setattr__(self, "_float_cache", M)
        return M

    def to_csr(self) -> sp.csr_matrix:
        dtype = np.complex128 if self.domain == ring.COMPLEX else np.float64
        data = np.array([complex(v) if dtype == np.complex128 else float(v) for v in self.vals], dtype=dtype)
        return sp.csr_matrix((data, (self.rows, self.cols)), shape=(self.n, self.n))


def compress(f: RingElement, F: FolnerWindow) -> CompressionMatrix:
    """The matrix of the left-convolution by f cut down to the window F.

    Triples come column by column, and within a column in f's sorted term
    order.
    """
    if f.descriptor != F.descriptor:
        raise DescriptorMismatch("element and window over different groups")
    terms = f.sorted_terms()
    values = [v for _, v in terms]
    pos = groups.window_translates(F, [g.coords for g, _ in terms]).T
    hit = pos >= 0
    cols, term_index = np.nonzero(hit)
    vals = [values[t] for t in term_index.tolist()]
    return CompressionMatrix(F, pos[hit].tolist(), cols.tolist(), vals, f.domain)


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


def _certify_torus_min(f: RingElement, grid_n: int) -> InvertibilityCertificate:
    desc = f.descriptor
    if desc.family != groups.LATTICE:
        return _not_certifiable("torus-min", "torus-min applies to integer lattices only")
    if not f:
        return _not_certifiable("torus-min", "zero element")
    d = desc.params[0]
    N = int(grid_n)
    if N < 2:
        raise DomainError("grid size must be >= 2")
    terms = f.sorted_terms()
    exps = np.array([g.coords for g, _ in terms], dtype=np.int64)
    coeffs = np.array([complex(v) for _, v in terms])
    # evaluate the symbol on the uniform N^d grid of the torus
    axes = np.meshgrid(*([np.arange(N)] * d), indexing="ij")
    values = np.zeros(axes[0].shape, dtype=np.complex128)
    for e, c in zip(exps, coeffs):
        phases = sum(int(ei) * ax for ei, ax in zip(e, axes)) % N
        values += c * np.exp(2j * np.pi * phases / N)
    grid_min = float(np.min(np.abs(values)))
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

def _as_operator(M):
    if isinstance(M, CompressionMatrix):
        if M.is_sparse and M.n > 512:
            return M.to_csr().tocsc()
        return M.to_float()
    if sp.issparse(M):
        return M.tocsc()
    arr = np.asarray(M)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError("expected a square matrix")
    return arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)


def sigma_min_estimate(M, rel_tol: float = 1e-8, max_iter: int = 2000) -> float:
    """Smallest singular value via inverse power iteration on M*M.

    Deterministic all-ones start vector; returns 0.0 for numerically
    singular input.
    """
    A = _as_operator(M)
    n = A.shape[0]
    if n == 0:
        raise DomainError("empty matrix")
    sparse = sp.issparse(A)
    try:
        if sparse:
            lu = sp.linalg.splu(A, options=dict(Equil=False))
            if np.min(np.abs(lu.U.diagonal())) < 1e-300:
                return 0.0
            solve = lu.solve
            def apply_inv(v):
                return solve(solve(v, trans="H"), trans="N")
        else:
            import scipy.linalg as sla
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lu, piv = sla.lu_factor(A)
            if np.min(np.abs(np.diag(lu))) < 1e-300:
                return 0.0
            def apply_inv(v):
                return sla.lu_solve((lu, piv), sla.lu_solve((lu, piv), v, trans=2), trans=0)
    except (RuntimeError, ValueError):
        return 0.0

    v = np.ones(n, dtype=np.complex128 if np.issubdtype(A.dtype, np.complexfloating) else np.float64)
    v /= math.sqrt(n)
    mu_prev = 0.0
    for _ in range(max_iter):
        w = apply_inv(v)
        mu = float(np.linalg.norm(w))
        if not math.isfinite(mu) or mu > 1e290:
            return 0.0
        if mu == 0.0:
            return 0.0
        v = w / mu
        if abs(mu - mu_prev) <= 0.5 * rel_tol * mu:
            break
        mu_prev = mu
    return 1.0 / math.sqrt(mu)
