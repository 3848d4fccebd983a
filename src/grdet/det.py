"""Determinant engines.

Four routes to log-determinant data live here:

  * logabsdet        -- pivoted elimination on floats (LAPACK getrf, or a
                        Cholesky shortcut for Hermitian positive-definite
                        input, or SuperLU for large sparse compressions),
                        accumulating logs of pivot magnitudes so window
                        sizes in the thousands cannot overflow;
  * snf              -- exact Smith normal form over arbitrary-precision
                        integers, with optional unimodular transforms;
  * fk_finite_sections / fk_poly_trace
                     -- the two approximation schemes for the
                        Fuglede-Kadison determinant of an invertible
                        group-ring element: normalized log-determinants of
                        window compressions, and exactly traced Chebyshev
                        approximants of log on a spectral enclosure, whose
                        moments come from a vectorized power walk on int64
                        coordinate arrays with residues modulo primes;
  * build_perturbed_compression / perturbation_study
                     -- low-rank rational perturbations of compressions
                        with norm-controlled transfer blocks, which keep
                        the same normalized limit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import DomainError
from . import groups, ring
from .groups import FolnerWindow
from .ring import RingElement
from .sections import CompressionMatrix, InvertibilityCertificate, compress

_TINY_PIVOT = 1e-300


# ---------------------------------------------------------------------------
# logabsdet

def _logabsdet_dense(A: np.ndarray) -> float:
    n = A.shape[0]
    if n == 0:
        return 0.0
    hermitian = bool(np.array_equal(A, A.conj().T))
    if hermitian:
        try:
            C = sla.cholesky(A, lower=True, check_finite=False)
            return 2.0 * float(np.sum(np.log(np.abs(np.diag(C)))))
        except sla.LinAlgError:
            pass  # indefinite or singular; fall through to LU
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, _ = sla.lu_factor(A, check_finite=False)
    d = np.abs(np.diag(lu))
    if float(np.min(d)) < _TINY_PIVOT:
        return -math.inf
    return float(np.sum(np.log(d)))


def _logabsdet_sparse(A: sp.spmatrix) -> float:
    # Equilibration must stay off: SuperLU's row/column scaling changes the
    # determinant of the factored matrix.
    try:
        lu = sp.linalg.splu(A.tocsc(), options=dict(Equil=False))
    except RuntimeError:
        return -math.inf
    d = np.abs(lu.U.diagonal())
    if d.size and float(np.min(d)) < _TINY_PIVOT:
        return -math.inf
    return float(np.sum(np.log(d)))


def logabsdet(M) -> float:
    """log |det M|, or -inf when a pivot falls below 1e-300.

    Accepts a CompressionMatrix, a dense array, or a scipy sparse matrix.
    """
    if isinstance(M, CompressionMatrix):
        if M.is_sparse and M.n > 512:
            return _logabsdet_sparse(M.to_csr())
        return _logabsdet_dense(M.to_float())
    if sp.issparse(M):
        if M.shape[0] != M.shape[1]:
            raise DomainError("logabsdet needs a square matrix")
        return _logabsdet_sparse(M)
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("logabsdet needs a square matrix")
    return _logabsdet_dense(A.astype(np.complex128 if np.iscomplexobj(A) else np.float64))


# ---------------------------------------------------------------------------
# exact integer linear algebra

def det_exact(M) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    if any(len(row) != n for row in A):
        raise DomainError("det_exact needs a square integer matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


@dataclass(frozen=True)
class SnfResult:
    """Elementary divisor chain d_1 | d_2 | ... | d_r, all >= 0.

    When transforms are kept, M = U . diag(divisors) . V with U, V
    unimodular; v_inverse is V^-1 (handy for enumerating dual solutions).
    """

    divisors: tuple
    u: Optional[tuple] = None
    v: Optional[tuple] = None
    v_inverse: Optional[tuple] = None


class _SnfState:
    def __init__(self, M, transforms: bool):
        self.A = [[int(x) for x in row] for row in M]
        self.m = len(self.A)
        self.n = len(self.A[0]) if self.m else 0
        self.transforms = transforms
        if transforms:
            self.U = [[int(i == j) for j in range(self.m)] for i in range(self.m)]
            self.V = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
            self.W = [[int(i == j) for j in range(self.n)] for i in range(self.n)]  # V^-1

    # row ops on A are E.A; U absorbs E^-1 on the right so M = U A V holds
    def swap_rows(self, i, j):
        if i == j:
            return
        self.A[i], self.A[j] = self.A[j], self.A[i]
        if self.transforms:
            for row in self.U:
                row[i], row[j] = row[j], row[i]

    def negate_row(self, i):
        self.A[i] = [-x for x in self.A[i]]
        if self.transforms:
            for row in self.U:
                row[i] = -row[i]

    def addmul_row(self, i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        Ai, Aj = self.A[i], self.A[j]
        for t in range(self.n):
            Ai[t] += q * Aj[t]
        if self.transforms:
            for row in self.U:
                row[j] -= q * row[i]

    # col ops on A are A.E; V absorbs E^-1 on the left, W = V^-1 absorbs E
    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.A:
            row[i], row[j] = row[j], row[i]
        if self.transforms:
            self.V[i], self.V[j] = self.V[j], self.V[i]
            for row in self.W:
                row[i], row[j] = row[j], row[i]

    def negate_col(self, i):
        for row in self.A:
            row[i] = -row[i]
        if self.transforms:
            self.V[i] = [-x for x in self.V[i]]
            for row in self.W:
                row[i] = -row[i]

    def addmul_col(self, i, j, q):
        # col_i += q * col_j
        if q == 0:
            return
        for row in self.A:
            row[i] += q * row[j]
        if self.transforms:
            Vj, Vi = self.V[j], self.V[i]
            for t in range(self.n):
                Vj[t] -= q * Vi[t]
            for row in self.W:
                row[i] += q * row[j]


def _snf_pivot(st: _SnfState, s: int):
    best = None
    for i in range(s, st.m):
        Ai = st.A[i]
        for j in range(s, st.n):
            v = Ai[j]
            if v != 0:
                a = abs(v)
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
    return best


def _snf_clear(st: _SnfState, s: int):
    """Make A[s][s] the only nonzero in its row and column (cols/rows > s)."""
    while True:
        best = _snf_pivot(st, s)
        st.swap_rows(s, best[1])
        st.swap_cols(s, best[2])
        if st.A[s][s] < 0:
            st.negate_row(s)
        p = st.A[s][s]
        dirty = False
        for i in range(s + 1, st.m):
            v = st.A[i][s]
            if v:
                st.addmul_row(i, s, -(v // p))
                if st.A[i][s]:
                    dirty = True
        for j in range(s + 1, st.n):
            v = st.A[s][j]
            if v:
                st.addmul_col(j, s, -(v // p))
                if st.A[s][j]:
                    dirty = True
        if not dirty:
            return


def snf(M, transforms: bool = True) -> SnfResult:
    """Smith normal form over the integers.

    Pivot choice is by minimal magnitude, which keeps intermediate entries
    from blowing up on the matrices this artifact meets; all arithmetic is
    arbitrary precision regardless.
    """
    rows = [list(r) for r in M]
    if not rows or not rows[0]:
        raise DomainError("snf needs a nonempty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("matrix rows must have equal length")
    st = _SnfState(rows, transforms)
    r = min(st.m, st.n)
    for s in range(r):
        if _snf_pivot(st, s) is None:
            break
        _snf_clear(st, s)
        # everything in the trailing block must be divisible by the pivot
        while True:
            p = st.A[s][s]
            bad = None
            for i in range(s + 1, st.m):
                Ai = st.A[i]
                for j in range(s + 1, st.n):
                    if Ai[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            st.addmul_row(s, bad, 1)
            _snf_clear(st, s)
    divisors = [st.A[i][i] for i in range(r)]
    # zeros (if any) already sit at the end: a zero pivot ends the loop
    if st.transforms:
        return SnfResult(
            tuple(divisors),
            u=tuple(tuple(row) for row in st.U),
            v=tuple(tuple(row) for row in st.V),
            v_inverse=tuple(tuple(row) for row in st.W),
        )
    return SnfResult(tuple(divisors))


def quotient_order(r: SnfResult):
    """|Z^n / M Z^n| from the divisor chain: the product, or infinity."""
    out = 1
    for d in r.divisors:
        if d == 0:
            return math.inf
        out *= d
    return out


# ---------------------------------------------------------------------------
# convergence tables

@dataclass(frozen=True)
class TableRow:
    n: int
    window_size: int
    boundary_ratio: Fraction
    value: float
    method: str

    @property
    def is_defect(self) -> bool:
        return not math.isfinite(self.value)


@dataclass(frozen=True)
class ConvergenceTable:
    target: str
    rows: tuple

    def __post_init__(self):
        sizes = [r.window_size for r in self.rows]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise DomainError("window sizes must be strictly increasing")

    def values(self):
        return [r.value for r in self.rows]

    def defects(self):
        return [r for r in self.rows if r.is_defect]

    def to_csv(self) -> str:
        lines = ["n,window_size,boundary_ratio,value,method"]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.window_size},{float(r.boundary_ratio):.12g},{r.value:.12g},{r.method}"
            )
        return "\n".join(lines) + "\n"


def _require_invertibility(certificate, assume_invertible, op):
    if assume_invertible:
        return
    if certificate is not None and getattr(certificate, "certified", False):
        return
    raise DomainError(
        f"{op} needs a certificate of invertibility or assume_invertible=True"
    )


def _canonical_adjoint_rep(f: RingElement) -> RingElement:
    """Pick the adjoint-orbit representative with the smaller term list.

    Determinant magnitudes of compressions are adjoint-invariant (the
    matrices are conjugate transposes), so evaluating every symbol through
    a canonical representative makes f and f* produce bit-identical tables.
    """
    fs = ring.adjoint(f)
    key = lambda h: tuple((g.sort_key(), repr(v)) for g, v in h.sorted_terms())
    return f if key(f) <= key(fs) else fs


def fk_finite_sections(
    f: RingElement,
    schedule: Sequence[FolnerWindow],
    certificate: Optional[InvertibilityCertificate] = None,
    assume_invertible: bool = False,
) -> ConvergenceTable:
    """Normalized log-determinants of window compressions of f.

    Row value is log|det f_F| / |F|; a singular compression shows up as a
    -inf defect row rather than an error, since compressions of invertible
    non-positive elements can legitimately be singular.
    """
    _require_invertibility(certificate, assume_invertible, "fk_finite_sections")
    g = _canonical_adjoint_rep(f)
    _, kernel = ring.l1_norm_and_kernel(g)
    rows = []
    for i, F in enumerate(schedule):
        M = compress(g, F)
        val = logabsdet(M) / len(F)
        br = groups.boundary_ratio(F, kernel)
        rows.append(TableRow(F.n if F.n is not None else i + 1, len(F), br, val, "sections"))
    return ConvergenceTable(f"fk determinant, finite sections of {len(f)}-term symbol", tuple(rows))


# ---------------------------------------------------------------------------
# polynomial traces

# Both trace routes walk the powers of a fixed element s on coordinate
# arrays (groups.CoordinateArrays).  The support of s^k is a groups.KeyIndex;
# one step (KeyIndex.translates) finds the support of s^(k+1) and, for each
# term of s, the rows its translates land on.  Coefficients ride along as
# int64 residues modulo primes below 2^31 (exact route, rebuilt by CRT) or
# as complex128 (float route), added term by term in the order of s's terms.

def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin: bases 2, 3, 5, 7 decide every n < 3.2e9
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _crt_primes(count: int) -> tuple:
    """The count largest primes below 2^31, descending.

    Residues stay below 2^31, so a product of two fits in int64.
    """
    primes = []
    n = (1 << 31) - 1
    while len(primes) < count:
        if _is_prime(n):
            primes.append(n)
        n -= 2
    return tuple(primes)


def _crt_symmetric(residues, primes) -> int:
    """The integer of least magnitude with the given residues."""
    modulus = math.prod(primes)
    x = 0
    for r, p in zip(residues, primes):
        q = modulus // p
        x += r * q * pow(q, -1, p)
    x %= modulus
    return x - modulus if 2 * x > modulus else x


def _integer_trace_moments(f: RingElement, count: int):
    """(D, [M_0, ..., M_count]) with tr((f* f)^j) = M_j / D^(2j), D f integral.

    Self-adjoint f: M_j = sum_g (F^j)_g^2 for F = D f, so one walk over
    powers of F suffices.  Otherwise walk powers of G = F* F and pair
    consecutive ones: M_2k = sum (G^k)_g^2 and M_2k+1 = sum (G^k)_g
    (G^(k+1))_g, where keys of G^k missing from G^(k+1) contribute 0.
    Every |M_j| <= |F|_1^(2j), which fixes the number of primes.
    """
    if f.domain not in (ring.INT, ring.RATIONAL):
        raise DomainError("exact trace moments need an exact scalar domain")
    D = math.lcm(*(Fraction(v).denominator for v in f.terms.values()))
    F = ring.ring_element(f.descriptor, {g: int(v * D) for g, v in f.terms.items()}, ring.INT)
    self_adjoint = ring.is_self_adjoint(F)
    s = F if self_adjoint else ring.convolve(ring.adjoint(F), F)
    terms = s.sorted_terms()
    bound = max(1, sum(abs(v) for v in F.terms.values())) ** (2 * count)
    # every prime exceeds 2^30, so their product exceeds 4 * bound
    primes = _crt_primes(-(-(bound.bit_length() + 2) // 30))
    P = np.array(primes, dtype=np.int64)[:, None]
    coeffs = np.array([[v % p for _, v in terms] for p in primes], dtype=np.int64)
    arrays = groups.CoordinateArrays(f.descriptor)
    S = arrays.rows(g.coords for g, _ in terms)

    def step(support, V):
        nxt, pos = groups.KeyIndex.translates(arrays, S, support)
        at, size = pos.reshape(-1), len(nxt.rows)
        acc = np.empty((len(primes), size), dtype=np.int64)
        for i, p in enumerate(primes):
            # each sum has at most len(S) terms below 2^31, exact in float64
            w = coeffs[i][:, None] * V[i][None, :] % p
            acc[i] = np.bincount(at, weights=w.reshape(-1).astype(np.float64), minlength=size)
        return nxt, acc % P

    def dot(A, B):
        return ((A * B % P).sum(axis=1) % P[:, 0]).tolist()

    support = groups.KeyIndex(arrays.rows([groups.identity(f.descriptor).coords]))
    V = np.ones((len(primes), 1), dtype=np.int64)
    residues = [None] * (count + 1)
    if self_adjoint:
        for j in range(count + 1):
            if j:
                support, V = step(support, V)
            residues[j] = dot(V, V)
    else:
        for k in range((count + 1) // 2 + 1):
            if k:
                prev, W = support, V
                support, V = step(support, V)
                if 2 * k - 1 <= count:
                    at = support.find(prev.rows)
                    hit = at >= 0
                    residues[2 * k - 1] = dot(W[:, hit], V[:, at[hit]])
            if 2 * k <= count:
                residues[2 * k] = dot(V, V)
    return D, [_crt_symmetric(r, primes) for r in residues]


def _trace_moments(f: RingElement, count: int) -> list:
    """Exact m_j = tr((f* f)^j) for j = 0..count, as ints or Fractions."""
    D, moments = _integer_trace_moments(f, count)
    if f.domain == ring.INT:
        return moments
    return [Fraction(m, D ** (2 * j)) for j, m in enumerate(moments)]


def _chebyshev_traces_exact(f: RingElement, a: Fraction, b: Fraction, degree: int) -> list:
    """tr T~_k(f* f) for k <= degree, each rounded once from its exact value.

    With a = A/d, b = B/d, S = A + B and L = B - A, the scaled Chebyshev
    polynomial is T_k((2x - (a+b)) / (b-a)) = P_k(x) / L^k for the integer
    polynomials P_0 = 1, P_1 = 2dx - S, P_k+1 = 2(2dx - S) P_k - L^2 P_k-1.
    The moments are M_j / q^j with q = D^2, so
    tr T~_k = sum_j P_k[j] M_j q^(k-j) / (L q)^k.
    """
    D, moments = _integer_trace_moments(f, degree)
    q = D * D
    d = math.lcm(a.denominator, b.denominator)
    A, B = int(a * d), int(b * d)
    S, L = A + B, B - A
    traces = []
    prev, cur = [], [1]
    for k in range(degree + 1):
        if k == 1:
            prev, cur = cur, [-S, 2 * d]
        elif k:
            nxt = [0] * (k + 1)
            for i, c in enumerate(cur):
                nxt[i] -= 2 * S * c
                nxt[i + 1] += 4 * d * c
            for i, c in enumerate(prev):
                nxt[i] -= L * L * c
            prev, cur = cur, nxt
        num = sum(c * moments[j] * q ** (k - j) for j, c in enumerate(cur))
        # int / int rounds correctly, like float(Fraction(num, den))
        traces.append(num / (L * q) ** k)
    return traces


def _chebyshev_traces_float(f: RingElement, a: float, b: float, degree: int) -> list:
    """tr T~_k(f* f) for k <= degree, complex-float domain.

    Uses the three-term recurrence P_{k+1} = 2 s P_k - P_{k-1} with
    s = (2 f*f - (a+b) e) / (b-a) directly on group-ring coefficients; the
    recurrence is the numerically stable way to evaluate Chebyshev
    polynomials, and all coefficients stay bounded when [a, b] encloses the
    spectrum.
    """
    desc = f.descriptor
    g = ring.convolve(ring.adjoint(f), f)
    ident = groups.identity(desc).coords
    s = {h.coords: 2.0 * complex(v) / (b - a) for h, v in g.sorted_terms()}
    s[ident] = s.get(ident, 0.0) - (a + b) / (b - a)
    s_terms = sorted(s.items())
    arrays = groups.CoordinateArrays(desc)
    S = arrays.rows(c for c, _ in s_terms)
    coeffs = [complex(v) for _, v in s_terms]
    e = arrays.rows([ident])

    def trace(support, V):
        (at,) = support.find(e)
        return V[at].real if at >= 0 else 0.0

    prev, P = groups.KeyIndex(e), np.ones(1, dtype=np.complex128)
    traces = [1.0]
    if degree >= 1:
        cur, C = groups.KeyIndex(S), np.array(coeffs, dtype=np.complex128)
        traces.append(trace(cur, C))
        for _ in range(2, degree + 1):
            nxt, pos = groups.KeyIndex.translates(arrays, S, cur)
            acc = np.zeros(len(nxt.rows), dtype=np.complex128)
            for t, c in enumerate(coeffs):
                acc[pos[t]] += c * C
            acc *= 2.0
            # s holds the identity, so the support of P_k-1 lies in P_k+1's
            acc[nxt.find(prev.rows)] -= P
            prev, P, cur, C = cur, C, nxt, acc
            traces.append(trace(cur, C))
    return [float(t) for t in traces]


def fk_poly_trace(f: RingElement, interval, degree: int):
    """FK log-determinant via an exactly traced polynomial approximant.

    Builds the degree-m Chebyshev interpolant Q of log on [a, b] (which must
    enclose the spectrum of f* f), evaluates tr Q(f* f) from the traces of
    the scaled Chebyshev polynomials (exact for int and rational f, each
    rounded once to float; a complex128 recurrence for complex f), and returns
    (value, bound) with bound = sup |Q - log| / 2 on [a, b], measured on a
    dense grid with a 5% safety factor.
    """
    a, b = interval
    if not (a > 0):
        raise DomainError("interval must satisfy 0 < a <= b")
    if not (a <= b):
        raise DomainError("interval must satisfy 0 < a <= b")
    if not isinstance(degree, int) or degree < 1:
        raise DomainError("degree must be a positive integer")
    if a == b:
        return 0.5 * math.log(a), 0.0

    from numpy.polynomial.chebyshev import Chebyshev

    if f.domain == ring.COMPLEX:
        # float coefficients: the monomial-moment route cancels catastrophically,
        # the direct Chebyshev recurrence is stable
        t_vals = _chebyshev_traces_float(f, float(a), float(b), degree)
    else:
        t_vals = _chebyshev_traces_exact(f, Fraction(a), Fraction(b), degree)
    if max(abs(t) for t in t_vals) > 1.0 + 1e-9:
        warnings.warn(
            "Chebyshev traces exceed 1 in magnitude; the interval probably "
            "does not enclose the spectrum of f*f and the result is unreliable"
        )
    series = Chebyshev.interpolate(np.log, degree, domain=[float(a), float(b)])
    value = 0.5 * math.fsum(float(ck) * tk for ck, tk in zip(series.coef, t_vals))
    grid = np.linspace(float(a), float(b), max(200 * degree, 2000) + 1)
    sup = float(np.max(np.abs(series(grid) - np.log(grid))))
    bound = 0.5 * sup * 1.05 + 1e-13
    return value, bound


def poly_trace_interval(certificate: InvertibilityCertificate, f: RingElement, padding: float = 0.05):
    """Spectral enclosure [sigma_min^2, |f|_1^2] for f* f, padded outward."""
    if not certificate.certified:
        raise DomainError("certificate does not certify invertibility")
    a = certificate.sigma_lower ** 2
    b = float(ring.l1_norm(f)) ** 2
    return a * (1.0 - padding), b * (1.0 + padding)


# ---------------------------------------------------------------------------
# perturbed compressions (rational transfer blocks on quasitiled windows)

@dataclass(frozen=True)
class TileTransfer:
    tile_index: int
    denominator: int
    norm: float
    inverse_norm: float


@dataclass(frozen=True)
class PerturbedCompression:
    matrix: tuple          # |F| x |F| rows of exact scalars
    window: FolnerWindow
    tiling: object         # dynamics.Tiling
    rank_defect: int
    denominator: int
    transfers: tuple = field(default_factory=tuple)

    def to_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.matrix], dtype=np.float64)


def _rational_nullspace(At: list) -> list:
    """Exact basis of the right null space of an integer matrix At.

    Returns a list of Fraction column vectors (lists).  Plain fraction
    Gauss-Jordan; the matrices here are tile-sized.
    """
    m = len(At)
    n = len(At[0])
    A = [[Fraction(x) for x in row] for row in At]
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if A[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][c]
        A[r] = [x / pv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                q = A[i][c]
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * n
        v[fcol] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -A[i][fcol]
        basis.append(v)
    return basis


def _round_fraction(x: float, log2_den: int) -> Fraction:
    den = 1 << log2_den
    return Fraction(round(x * den), den)


def _near_orthonormal_rational_basis(null_basis: list):
    """Rational vectors close to an orthonormal basis of span(null_basis).

    Stays inside the exact null space: each output is an exact rational
    combination of the exact basis, with combination coefficients rounded
    from the least-squares coordinates of a numerical orthonormal basis.
    """
    n = len(null_basis[0])
    r = len(null_basis)
    # rescale exact basis columns by powers of two for numerical sanity
    scaled = []
    for v in null_basis:
        nrm = math.sqrt(math.fsum(float(x) * float(x) for x in v))
        shift = int(round(math.log2(nrm))) if nrm > 0 else 0
        scaled.append([x / (1 << shift) if shift >= 0 else x * (1 << -shift) for x in v])
    B = np.array([[float(x) for x in v] for v in scaled]).T  # n x r
    Q, _ = np.linalg.qr(B)
    for log2_den in (20, 34, 48):
        vectors = []
        for i in range(r):
            coords, *_ = np.linalg.lstsq(B, Q[:, i], rcond=None)
            exact = [Fraction(0)] * n
            for j, cj in enumerate(coords):
                cj_r = _round_fraction(float(cj), log2_den)
                if cj_r:
                    col = scaled[j]
                    exact = [e + cj_r * x for e, x in zip(exact, col)]
            vectors.append(exact)
        Vf = np.array([[float(x) for x in v] for v in vectors]).T
        svals = np.linalg.svd(Vf, compute_uv=False)
        if svals.size and svals[0] <= 2.0 and svals[-1] >= 0.5:
            return vectors, float(svals[0]), float(1.0 / svals[-1])
    raise RuntimeError("could not round the orthonormal null basis within norm bounds")


def build_perturbed_compression(
    f: RingElement,
    F: FolnerWindow,
    tiles: Sequence[FolnerWindow],
    epsilon: float,
):
    """Perturb f_F to a block-invertible integer-friendly operator.

    Quasitiles F by the given tiles (pairwise-disjoint mode).  On each
    placed tile W the interior W' = {g : K_f g inside W} carries f itself;
    the complement columns carry a rational near-orthonormal basis of the
    orthogonal complement of f C[W'] in C[W], with transfer norms and
    inverse norms at most 2; uncovered window points carry the identity.
    The perturbation S - f_F is supported on at most |F \\ F'| columns and
    M * (those columns) is integral for the reported denominator M.
    """
    from . import dynamics

    if f.domain != ring.INT:
        raise DomainError("perturbed compressions need exact-integer symbols")
    if not (0 < epsilon < 2):
        raise DomainError("epsilon must lie in (0, 2)")
    _, kernel = ring.l1_norm_and_kernel(f)
    mul = groups.coordinate_multiplier(f.descriptor)

    interiors = []
    for t_idx, W in enumerate(tiles):
        wset = set(W.index)
        inner = [
            g for g in W.elements
            if all(groups.GroupElement(f.descriptor, mul(k.coords, g.coords)) in wset for k in kernel)
        ]
        if len(inner) < (1 - epsilon / 2) * len(W):
            raise DomainError(
                f"tile {t_idx} violates the interior condition: "
                f"{len(inner)}/{len(W)} interior points at epsilon={epsilon}"
            )
        interiors.append(inner)

    # the tiling epsilon (coverage target) is separate from the interior
    # level and must fit quasitile's (0, 1/2) contract
    tiling = dynamics.quasitile(F, tiles, min(epsilon / 2, 0.499), mode="pairwise-disjoint")

    # per tile shape: exact null data for (f C[W'])^perp inside C[W]
    shape_data = {}
    for t_idx in sorted({ti for ti, _ in tiling.placements}):
        W = tiles[t_idx]
        inner = interiors[t_idx]
        inner_set = set(inner)
        comp = [g for g in W.elements if g not in inner_set]
        if comp:
            # columns of f over the interior, rows over the tile
            A = [[0] * len(inner) for _ in range(len(W))]
            for j, g in enumerate(inner):
                for k, v in f.terms.items():
                    tgt = groups.GroupElement(f.descriptor, mul(k.coords, g.coords))
                    A[W.index[tgt]][j] = int(v)
            null_basis = _rational_nullspace([list(col) for col in zip(*A)])
            if len(null_basis) != len(comp):
                raise DomainError(
                    f"tile {t_idx}: f is rank-deficient on the tile interior; "
                    "is f invertible?"
                )
            vectors, nrm, inv_nrm = _near_orthonormal_rational_basis(null_basis)
            mj = 1
            for v in vectors:
                for x in v:
                    mj = mj * x.denominator // math.gcd(mj, x.denominator)
        else:
            vectors, nrm, inv_nrm, mj = [], 1.0, 1.0, 1
        shape_data[t_idx] = (inner, comp, vectors, TileTransfer(t_idx, mj, nrm, inv_nrm))

    n = len(F)
    S = [[Fraction(0)] * n for _ in range(n)]
    base = compress(f, F)
    fF = [[0] * n for _ in range(n)]
    for r, c, v in zip(base.rows, base.cols, base.vals):
        fF[r][c] = int(v)

    covered_cols = set()
    for t_idx, center in tiling.placements:
        inner, comp, vectors, _ = shape_data[t_idx]
        W = tiles[t_idx]
        # interior columns: f itself (fully supported inside the translate)
        for g in inner:
            col = F.index[groups.multiply(g, center)]
            covered_cols.add(col)
            for i in range(n):
                if fF[i][col]:
                    S[i][col] = Fraction(fF[i][col])
        for g, vec in zip(comp, vectors):
            col = F.index[groups.multiply(g, center)]
            covered_cols.add(col)
            for w, x in zip(W.elements, vec):
                if x:
                    S[F.index[groups.multiply(w, center)]][col] = x
    for col in range(n):
        if col not in covered_cols:
            S[col][col] = Fraction(1)

    Sf = np.array([[float(x) for x in row] for row in S])
    diff = Sf - np.array(fF, dtype=np.float64)
    rank_defect = int(np.linalg.matrix_rank(diff)) if np.any(diff) else 0
    denominator = 1
    transfers = []
    for t_idx in sorted(shape_data):
        tr = shape_data[t_idx][3]
        transfers.append(tr)
        denominator *= tr.denominator
    return PerturbedCompression(
        matrix=tuple(tuple(row) for row in S),
        window=F,
        tiling=tiling,
        rank_defect=rank_defect,
        denominator=denominator,
        transfers=tuple(transfers),
    )


# ---------------------------------------------------------------------------
# random unit-column perturbation study

def perturbation_study(
    f: RingElement,
    schedule: Sequence[FolnerWindow],
    rank_fraction: float,
    seed: int = 0,
    certificate: Optional[InvertibilityCertificate] = None,
    assume_invertible: bool = False,
) -> ConvergenceTable:
    """Normalized log-determinants of compressions with random unit columns.

    Replaces at most rank_fraction * |F| columns by unit vectors (weight 1),
    preferring columns outside the interior {g : K_f g inside F} and filling
    the remainder by a seeded draw.  Unit columns keep both the norm and the
    inverse norm of the perturbed operator under control, which is what the
    determinant limit needs.
    """
    if not (0 <= rank_fraction <= 0.1):
        raise DomainError("rank_fraction must lie in [0, 0.1]")
    _require_invertibility(certificate, assume_invertible, "perturbation_study")
    g = _canonical_adjoint_rep(f)
    _, kernel = ring.l1_norm_and_kernel(g)
    kernel_coords = [kk.coords for kk in kernel]
    rows = []
    for idx, F in enumerate(schedule):
        M = compress(g, F)
        k = int(math.floor(rank_fraction * len(F)))
        replaced: list[int] = []
        if k:
            leaves = groups.window_translates(F, kernel_coords) < 0
            boundary = np.flatnonzero(leaves.any(axis=0)).tolist()
            if k <= len(boundary):
                replaced = boundary[:k]
            else:
                rng = np.random.default_rng(seed)
                rest = np.setdiff1d(np.arange(len(F)), np.array(boundary, dtype=int))
                extra = rng.choice(rest, size=k - len(boundary), replace=False)
                replaced = sorted(boundary + [int(x) for x in extra])
        repl = set(replaced)
        rows_keep = []
        cols_keep = []
        vals_keep = []
        for r, c, v in zip(M.rows, M.cols, M.vals):
            if c not in repl:
                rows_keep.append(r)
                cols_keep.append(c)
                vals_keep.append(v)
        for c in replaced:
            rows_keep.append(c)
            cols_keep.append(c)
            vals_keep.append(ring._coerce(1, M.domain))
        S = CompressionMatrix(F, rows_keep, cols_keep, vals_keep, M.domain)
        val = logabsdet(S) / len(F)
        br = groups.boundary_ratio(F, kernel)
        rows.append(TableRow(F.n if F.n is not None else idx + 1, len(F), br, val, "perturbed"))
    return ConvergenceTable(
        f"fk determinant, rank-{rank_fraction} unit-column perturbations (seed {seed})",
        tuple(rows),
    )
