"""Determinant engines.

Five routes to determinant data live here:

  * logabsdet        -- log|det| from factorization.factor (SuperLU for
                        every input), summing logs of pivot magnitudes;
                        -inf when the smallest pivot is at most 16 n eps
                        times the largest, unless an exact-integer matrix
                        has a nonzero determinant modulo a prime;
  * det_exact        -- the signed determinant of an integer matrix: sparse
                        unit pivots that touch only nonzeros while a row
                        holds a +-1, then fraction-free Bareiss on the
                        trailing block; an elimination apart from snf's, so
                        that it checks snf's order independently;
  * snf              -- exact Smith normal form over arbitrary-precision
                        integers, with optional unimodular transforms, in
                        two phases: unit pivots while the trailing block
                        holds a +-1, then one pivoting loop on the rest,
                        run on the Hermite basis modulo |det| of a large
                        nonsingular square block, so that the transforms
                        are bounded through |det| rather than by the pivot
                        sequence; A's rows are dense and its updates skip
                        zero multiplicands, while U, V and V^-1 are held
                        as {column: value} rows whose updates touch only
                        their nonzeros, made dense once on return;
  * fk_finite_sections / fk_poly_trace
                     -- the two approximation schemes for the
                        Fuglede-Kadison determinant of an invertible
                        group-ring element: normalized log-determinants of
                        window compressions, and exactly traced Chebyshev
                        approximants of log on a spectral enclosure, whose
                        traces come from one paired walk to half the degree
                        on int64 coordinate arrays, exact (powers, residues
                        modulo primes) or complex128 (Chebyshev recurrence);
  * build_perturbed_compression / perturbation_study
                     -- low-rank rational perturbations of compressions
                        with norm-controlled transfer blocks, which keep
                        the same normalized limit; tile interiors and
                        placements come from groups.window_translates, and
                        each tile's exact kernel from snf's V^-1.

fk_finite_sections and perturbation_study share one table loop, _section_rows.
Both perturbation routes replace columns of f_F through one helper,
_replace_columns, and find the points g with K g inside a window through one
mask, _interior: unit columns for perturbation_study, transfer vectors at
tile complements and unit columns at uncovered points (exact rationals) for
build_perturbed_compression.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DescriptorMismatch, DomainError
from . import groups, ring
from .factorization import factor
from .groups import FolnerWindow
from .ring import RingElement, _crt_primes
from .sections import CompressionMatrix, InvertibilityCertificate, compress


# ---------------------------------------------------------------------------
# logabsdet

def logabsdet(M) -> float:
    """log |det M|, or -inf when the factorization finds M singular.

    Accepts a CompressionMatrix, a dense array, or a scipy sparse matrix;
    factorization.factor eliminates each with SuperLU.  M counts as singular
    when its smallest pivot is at most 16 n eps times its largest, unless M
    is an exact-integer matrix with a nonzero determinant modulo a prime
    (then a float elimination that met an exactly zero pivot raises
    ScaleExceeded).  Non-finite entries raise DomainError.
    """
    return factor(M).logabsdet


# ---------------------------------------------------------------------------
# exact integer linear algebra

def _bareiss(A: list) -> int:
    """Determinant of the square integer matrix A (a list of int rows, at
    least 1 x 1) by fraction-free Bareiss elimination; overwrites A."""
    n = len(A)
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


def _int_rows(M, op: str) -> list:
    """M's entries as Python ints.  operator.index takes Python and numpy
    ints but refuses floats and Fractions, which int() would truncate."""
    try:
        return [[operator.index(x) for x in row] for row in M]
    except TypeError:
        raise DomainError(f"{op} needs integer entries") from None


def _permutation_sign(perm: list) -> int:
    """Sign of the permutation i -> perm[i] of range(len(perm))."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            if j != i:
                sign = -sign
    return sign


def det_exact(M) -> int:
    """Exact determinant of a square integer matrix, with its sign.

    Sparse unit pivots first, on rows stored as {column: value}: while a live
    row holds a +-1, the first such row pivots on its first unit column,
    clears that column from the other live rows (touching their nonzeros
    only), and its row and column are dropped.  Fraction-free Bareiss then
    takes the trailing block, rows and columns in their original order.
    Pivoting at (r_k, c_k) leaves the matrix block upper triangular once its
    rows are ordered r_1, r_2, ..., rest and its columns c_1, c_2, ..., rest;
    so det M is the two orderings' signs times the units times the block's
    determinant.  Nothing is divided: every value is an exact int.  On the
    (Z/m)^2 compressions of 6 + x - x^-1 + y - y^-1 + xy at m = 8, 10, 12 the
    block has 16, 20 and 24 rows; pivoting in the sparsest row instead fills
    in more and leaves 19, 26 and 32.
    """
    A = _int_rows(M, "det_exact")
    n = len(A)
    if any(len(row) != n for row in A):
        raise DomainError("det_exact needs a square integer matrix")
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(A)}
    row_order, col_order = [], []
    sign = 1
    while True:
        best = next((i for i, row in rows.items()
                     if 1 in row.values() or -1 in row.values()), None)
        if best is None:
            break
        prow = rows.pop(best)
        c = min(j for j, x in prow.items() if x in (1, -1))
        u = prow.pop(c)
        sign *= u
        row_order.append(best)
        col_order.append(c)
        for row in rows.values():
            a = row.pop(c, 0)
            if a:
                q = a * u   # row -= (a / u) prow, and 1 / u = u
                for j, x in prow.items():
                    v = row.get(j, 0) - q * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
    rest = sorted(rows)
    cols = sorted(set(range(n)).difference(col_order))
    sign *= _permutation_sign(row_order + rest) * _permutation_sign(col_order + cols)
    if not rest:
        return sign
    return sign * _bareiss([[rows[i].get(j, 0) for j in cols] for i in rest])


@dataclass(frozen=True)
class SnfResult:
    """Elementary divisor chain d_1 | d_2 | ... | d_r, all >= 0, of an
    m x n matrix M with r = min(m, n); rows is m.

    When transforms are kept, M = U . diag(divisors) . V with U, V
    unimodular; v_inverse is V^-1 (handy for enumerating dual solutions).
    u, v and v_inverse are dense tuples of int tuples, row by row, built
    once from the sparse rows snf works on.
    """

    divisors: tuple
    rows: int
    u: Optional[tuple] = None
    v: Optional[tuple] = None
    v_inverse: Optional[tuple] = None


def _axpy(X: list, i: int, j: int, q: int):
    """X[i] += q X[j] on dense rows (snf's A), skipping the zeros of X[j]."""
    Xi = X[i]
    for t, x in enumerate(X[j]):
        if x:
            Xi[t] += q * x


def _sparse_axpy(X: list, i: int, j: int, q: int):
    """X[i] += q X[j] on {column: value} rows: touches only X[j]'s nonzeros
    and drops the entries of X[i] that cancel to 0."""
    Xi = X[i]
    get = Xi.get
    for t, x in X[j].items():
        v = get(t, 0) + q * x
        if v:
            Xi[t] = v
        else:
            del Xi[t]


def _sparse_matmul(X: list, Y: list) -> list:
    """X Y for lists of {column: value} rows, X's columns indexing Y's rows."""
    out = []
    for row in X:
        acc = {}
        for b, c in row.items():
            for t, y in Y[b].items():
                acc[t] = acc.get(t, 0) + c * y
        out.append({t: v for t, v in acc.items() if v})
    return out


def _dense_transpose(X: list, n: int) -> tuple:
    """The n x len(X) matrix whose column i is the map X[i], as int tuples."""
    T = [[0] * len(X) for _ in range(n)]
    for i, row in enumerate(X):
        for t, x in row.items():
            T[t][i] = x
    return tuple(map(tuple, T))


class _SnfState:
    """A = U^-1 M V^-1 under row and column operations.  U and V^-1 are kept
    transposed (Ut, Wt), so that every update of A, U, V and V^-1 is a row
    swap, a row negation or a row update.  A's rows are dense lists; the rows
    of Ut, V and Wt start from the identity as {column: value} maps holding
    only their nonzeros, since after the unit pivots most entries stay 0."""

    def __init__(self, M, transforms: bool):
        self.A = _int_rows(M, "snf")
        self.m = len(self.A)
        self.n = len(self.A[0]) if self.m else 0
        self.transforms = transforms
        if transforms:
            self.Ut = [{i: 1} for i in range(self.m)]
            self.V = [{i: 1} for i in range(self.n)]
            self.Wt = [{i: 1} for i in range(self.n)]

    # row ops on A are E.A; U absorbs E^-1 on the right so M = U A V holds
    def swap_rows(self, i, j):
        if i == j:
            return
        self.A[i], self.A[j] = self.A[j], self.A[i]
        if self.transforms:
            self.Ut[i], self.Ut[j] = self.Ut[j], self.Ut[i]

    def negate_row(self, i):
        self.A[i] = [-x for x in self.A[i]]
        if self.transforms:
            self.Ut[i] = {t: -x for t, x in self.Ut[i].items()}

    def addmul_row(self, i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        _axpy(self.A, i, j, q)
        if self.transforms:
            _sparse_axpy(self.Ut, j, i, -q)

    # col ops on A are A.E; V absorbs E^-1 on the left, V^-1 absorbs E
    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.A:
            row[i], row[j] = row[j], row[i]
        if self.transforms:
            self.V[i], self.V[j] = self.V[j], self.V[i]
            self.Wt[i], self.Wt[j] = self.Wt[j], self.Wt[i]

    def addmul_col(self, i, j, q, rows):
        # col_i += q * col_j, where col_j is zero outside ``rows``
        if q == 0:
            return
        for r in rows:
            Ar = self.A[r]
            if Ar[j]:
                Ar[i] += q * Ar[j]
        if self.transforms:
            _sparse_axpy(self.V, j, i, -q)
            _sparse_axpy(self.Wt, i, j, q)


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


def _snf_clear(st: _SnfState, s: int, best):
    """Make A[s][s] the only nonzero in its row and column (cols/rows > s),
    starting from best = _snf_pivot(st, s)."""
    while True:
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
        # rows above s are cleared; below it, column s is zero unless dirty
        rows = range(s, st.m) if dirty else (s,)
        for j in range(s + 1, st.n):
            v = st.A[s][j]
            if v:
                st.addmul_col(j, s, -(v // p), rows)
                if st.A[s][j]:
                    dirty = True
        if not dirty:
            return
        best = _snf_pivot(st, s)


def _eliminate(st: _SnfState, s: int, units_only: bool = False) -> int:
    """Least-magnitude pivots from step s on; returns the step it stopped at.

    After a pivot p > 1 the trailing block is repaired until p divides all
    of it; a unit pivot divides everything and needs no repair.  With
    units_only the loop stops at the first step whose block holds no +-1.
    """
    while s < min(st.m, st.n):
        best = _snf_pivot(st, s)
        if best is None or (units_only and best[0] != 1):
            break
        _snf_clear(st, s, best)
        while st.A[s][s] != 1:
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
            _snf_clear(st, s, _snf_pivot(st, s))
        s += 1
    return s


def _xgcd(a: int, b: int):
    """(g, u, v) with u a + v b = g = gcd(a, b), for a, b >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return a, u0, v0


def _hermite_mod(B: list, delta: int) -> list:
    """Lower-triangular Hermite basis H of the row lattice L = Z^k B, where
    delta = |det B| > 0: every row of H lies in L, h_ii > 0 and
    0 <= h_ij < h_jj for j < i, so B H^-1 is unimodular.

    Domich, Kannan and Trotter's reduction modulo the determinant, column by
    column from the last (Cohen, GTM 138, Alg. 2.4.8, on rows).  While the
    lattice met in columns <= c has determinant R, it contains R Z^(c+1), so
    the working rows are kept modulo R; column c's gcd g with R is h_cc, and
    the rows left with a 0 there span a lattice of determinant R / g.  Rows
    already found are reduced by the new row exactly: modulo the shrunken R
    they would leave L.
    """
    k = len(B)
    R = delta
    rows = [[x % R for x in row] for row in B]
    H = [None] * k
    for c in range(k - 1, -1, -1):
        h = [0] * k
        p = None
        for i, row in enumerate(rows):
            b = row[c]
            if not b:
                continue
            if p is None:
                p = i
                continue
            P = rows[p]
            a = P[c]
            g, u, v = _xgcd(a, b)
            a, b = a // g, b // g
            rows[p] = [(u * x + v * y) % R for x, y in zip(P, row)]
            rows[i] = [(a * y - b * x) % R for x, y in zip(P, row)]
        a = 0 if p is None else rows[p][c]
        g, u, _ = _xgcd(a, R)
        if p is not None:
            h[:c] = [u * x % R for x in rows[p][:c]]
            del rows[p]
        h[c] = g
        for later in H[c + 1:]:
            q = later[c] // g
            if q:
                for j in range(c + 1):
                    later[j] -= q * h[j]
        H[c] = h
        R //= g
        rows = [[x % R for x in row[:c]] for row in rows]
    if R != 1:
        raise AssertionError("delta is not the determinant of the lattice")
    return H


def _hermite_steps(st: _SnfState, s: int, delta: int):
    """Phase 2 on the nonsingular trailing block B = A[s:, s:], |det B| = delta.

    H = X B is the Hermite basis modulo delta (X unimodular, H lower
    triangular with entries below delta), and _eliminate runs on all of H in
    a state of its own: H = U_h D V_h.  So B = Y U_h D V_h with Y = X^-1 =
    B H^-1, which one back substitution gives.  U, V and V^-1 change only
    in the block's columns or rows; without transforms only A changes.
    """
    B = [row[s:] for row in st.A[s:]]
    H = _hermite_mod(B, delta)
    block = _SnfState(H, st.transforms)
    _eliminate(block, 0)
    for row, new in zip(st.A[s:], block.A):
        row[s:] = new
    if not st.transforms:
        return
    k = len(H)
    Y = []
    for brow in B:
        y = [0] * k
        for b in range(k - 1, -1, -1):
            y[b] = (brow[b] - sum(y[a] * H[a][b] for a in range(b + 1, k))) // H[b][b]
        Y.append(y)
    # U[:, s:] Y U_h, V_h V[s:] and V^-1[:, s:] V_h^-1, on the transposes
    Yt = [{a: y[c] for a, y in enumerate(Y) if y[c]} for c in range(k)]
    st.Ut[s:] = _sparse_matmul(_sparse_matmul(block.Ut, Yt), st.Ut[s:])
    st.V[s:] = _sparse_matmul(block.V, st.V[s:])
    st.Wt[s:] = _sparse_matmul(block.Wt, st.Wt[s:])


# Smaller trailing blocks go to the pivoting loop as they are.  Timed on a
# 2-core x86-64 host against that loop alone (minimum of 7 calls, the same
# blocks in both modes, transforms on sparse rows), with transforms / without,
# the Hermite phase took 2.6-11x / 1.7-5.9x the loop's time (under 0.3 ms
# more) on the 1- to 8-row blocks of the finite workload's chain compressions
# (seed 5), and 1.2-5.2x / 1.5-3.3x (under 0.9 ms more) on unit-free
# circulants of 8 to 16 points, where pivoting stays cheap.  On dense random
# unit-free blocks of 8 to 16 rows it took 0.63-1.7x / 1.3-2.0x, and at 20
# rows 0.32-0.55x / 1.2x.  It gains on blocks left after unit steps:
# 0.20-0.36x / 0.44-0.74x on the 10- to 14-row blocks of the (Z/m)^2
# compressions of 6 + x - x^-1 + y - y^-1 + xy at m = 5..7, and
# 0.07-0.20x / 0.28-0.49x on the 16- to 24-row blocks of the finite/snf-m x m
# inputs.  At 12, the chain blocks stay below the threshold and the snf-m x m
# blocks lie above it.  Any value but 11 or 12 changes U, V and V^-1 on the
# (Z/m)^2 compressions that tests/test_det.py pins.
_HERMITE_MIN_BLOCK = 12


def snf(M, transforms: bool = True) -> SnfResult:
    """Smith normal form over the integers, in two phases.

    Phase 1 clears unit pivots while the trailing block holds one; a unit
    divides everything, so they need no divisibility repair, and with the
    pivot's column clear a column operation changes only the pivot row of A.
    A nonsingular square block of at least _HERMITE_MIN_BLOCK rows left after
    them is replaced by its Hermite basis modulo |det| (_hermite_steps),
    whose entries stay below |det|; smaller, singular and rectangular blocks
    stay as they are.  Either way the one elimination loop, _eliminate,
    finishes the block: least-magnitude pivots with divisibility repair.
    Pivoting on the block itself lets the transforms grow to thousands of
    bits where |det| has hundreds.  Both transform modes take the same
    phases.  All arithmetic is arbitrary precision.

    With transforms, U, V and V^-1 are kept as rows of {column: value} maps
    from the identity on: a swap exchanges two maps, and a negation or a
    row update touches only a row's nonzeros (most of them stay 0 through
    phase 1), as does the Hermite phase's composition with the block's own
    transforms.  They become the dense tuples of the SnfResult only here.
    """
    rows = [list(r) for r in M]
    if not rows or not rows[0]:
        raise DomainError("snf needs a nonempty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("matrix rows must have equal length")
    st = _SnfState(rows, transforms)
    hermite = st.m == st.n and st.n >= _HERMITE_MIN_BLOCK
    s = _eliminate(st, 0, units_only=hermite)
    delta = 0
    if hermite and st.n - s >= _HERMITE_MIN_BLOCK:
        delta = abs(_bareiss([row[s:] for row in st.A[s:]]))
    if delta:
        _hermite_steps(st, s, delta)
    else:
        _eliminate(st, s)
    # zeros (if any) already sit at the end: a zero pivot ends the loop
    divisors = tuple(st.A[i][i] for i in range(min(st.m, st.n)))
    if not transforms:
        return SnfResult(divisors, st.m)
    return SnfResult(divisors, st.m, u=_dense_transpose(st.Ut, st.m),
                     v=tuple(zip(*_dense_transpose(st.V, st.n))),
                     v_inverse=_dense_transpose(st.Wt, st.n))


def quotient_order(r: SnfResult):
    """|Z^m / M Z^n|, the order of the cokernel of an m x n matrix M: the
    product of the divisors, or infinity when one of them is 0 or m exceeds
    their count (a free part remains)."""
    if r.rows > len(r.divisors) or 0 in r.divisors:
        return math.inf
    return math.prod(r.divisors)


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
    return ConvergenceTable(
        f"fk determinant, finite sections of {len(f)}-term symbol",
        _section_rows(f, schedule, "sections", lambda M, kernel: M),
    )


def _section_rows(f: RingElement, schedule, method: str, window_matrix) -> tuple:
    """Rows log|det window_matrix(g_F, kernel)| / |F| over the schedule, with g
    f's canonical adjoint representative and kernel its support."""
    g = _canonical_adjoint_rep(f)
    _, kernel = ring.l1_norm_and_kernel(g)
    rows = []
    for i, F in enumerate(schedule):
        val = logabsdet(window_matrix(compress(g, F), kernel)) / len(F)
        br = groups.boundary_ratio(F, kernel)
        rows.append(TableRow(F.n if F.n is not None else i + 1, len(F), br, val, method))
    return tuple(rows)


# ---------------------------------------------------------------------------
# polynomial traces

# Both trace routes run one paired walk (_pair_walk) on coordinate arrays.
# Each support is a groups.KeyIndex; one step (KeyIndex.translates) finds the
# next support and where each translate lands.  Coefficients ride along as
# int64 residues modulo primes below 2^31 (exact route, rebuilt by CRT) or as
# complex128 (float route).  In the exact route s's coefficients are centred
# residues c~ with |c~| <= min(|c|, 2^30) and Q_j's stay in [0, p), so a
# scattered row sum is at most (p - 1) S with S = sum_t min(|c_t|, 2^30); the
# primes lie below 2^53 / S, which keeps every product and row sum an exact
# float64 integer and leaves one reduction mod p per step.  Only
# a_j = <Q_j, Q_j> and b_j = <Q_j, Q_j+1> are kept, with
# <X, Y> = sum X(g) conj(Y(g)) = tr(X Y) for self-adjoint Y.  Half
# the depth gives every trace: tr s^2j = a_j and tr s^2j+1 = b_j for s = s*,
# and T_2j = 2 T_j^2 - 1, T_2j+1 = 2 T_j T_j+1 - T_1 give 2 a_j - 1, 2 b_j - b_0.

def _crt_symmetric(residues, primes) -> int:
    """The integer of least magnitude with the given residues."""
    modulus = math.prod(primes)
    x = 0
    for r, p in zip(residues, primes):
        q = modulus // p
        x += r * q * pow(q, -1, p)
    x %= modulus
    return x - modulus if 2 * x > modulus else x


def _pair_walk(desc, coords, C, depth: int, odd: bool, P=None, chebyshev: bool = False):
    """Pair sums of Q_0 = e, Q_1 = s, Q_j+1 = s Q_j (or 2 s Q_j - Q_j-1 if
    chebyshev, which needs odd): rows a_j = <Q_j, Q_j> for j <= depth, and if
    odd b_j = <Q_j, Q_j+1> between them (a_0, b_0, a_1, ..., a_depth).

    s has the rows ``coords`` and coefficients C of shape (planes, len(coords)):
    int64 centred residues modulo the column of primes P, with
    (p - 1) sum |C[i]| < 2^53 on plane i, or one complex128 plane if P is
    None.  Pairing needs e among the rows (its coefficient may be 0): the
    translates by e place Q_j's rows in Q_j+1's support.
    """
    arrays = desc.ops.arrays()
    e = arrays.rows([groups.identity(desc).coords])
    S = arrays.rows(coords)
    if odd:
        (at_e,) = np.flatnonzero((S == e).all(axis=1))

    reduce = (lambda X: X) if P is None else (lambda X: X % P)

    def dot(X, Y):   # residues below 2^31: products and plane sums fit int64
        return reduce(reduce(X * Y.conj()).sum(axis=1, keepdims=True))[:, 0]

    support, V = groups.KeyIndex(e), np.ones((len(C), 1), dtype=C.dtype)
    sums = [dot(V, V)]
    for j in range(1, depth + 1):
        nxt, pos = groups.KeyIndex.translates(arrays, S, support)
        at, size = pos.reshape(-1), len(nxt.rows)
        W = np.empty((len(C), size), dtype=C.dtype)
        for i, c in enumerate(C):
            w = (c[:, None] * V[i][None, :]).reshape(-1)
            if P is None:
                W[i] = np.bincount(at, w.real, size) + 1j * np.bincount(at, w.imag, size)
            else:   # |row sum| <= (p - 1) sum |c| < 2^53: exact in float64
                W[i] = np.bincount(at, w, size)
        if odd:
            emb = pos[at_e].copy()   # Q_j-1's rows in Q_j's support
            if chebyshev and j > 1:
                W *= 2
                W[:, emb[back]] -= U
            back, U = emb, V
        del w, at, pos   # let the next translates reuse their memory
        W = reduce(W)
        if odd:
            sums.append(dot(V, W[:, emb]))
        V, support = W, nxt
        sums.append(dot(V, V))
    return np.array(sums)


def _integer_trace_moments(f: RingElement, count: int):
    """(D, [M_0, ..., M_count]) with tr((f* f)^j) = M_j / D^(2j), D f integral.

    Self-adjoint f: M_j = sum_g (F^j)_g^2 = a_j for the powers of F = D f.
    Otherwise walk powers of G = F* F to half the depth: M_2k = a_k =
    sum (G^k)_g^2 and M_2k+1 = b_k = sum (G^k)_g (G^(k+1))_g.
    Every |M_j| <= |F|_1^(2j), which fixes the number of primes; s's
    coefficients fix how large they may be (see _walk_primes).
    """
    if f.domain not in (ring.INT, ring.RATIONAL):
        raise DomainError("exact trace moments need an exact scalar domain")
    D = math.lcm(*(Fraction(v).denominator for v in f.terms.values()))
    F = ring.ring_element(f.descriptor, {g: int(v * D) for g, v in f.terms.items()}, ring.INT)
    self_adjoint = ring.is_self_adjoint(F)
    s = F if self_adjoint else ring.convolve(ring.adjoint(F), F)
    terms = s.sorted_terms()
    bound = max(1, sum(abs(v) for v in F.terms.values())) ** (2 * count)
    primes = _walk_primes([v for _, v in terms], bound)
    C = np.array([[(v + p // 2) % p - p // 2 for _, v in terms] for p in primes],
                 dtype=np.int64)
    depth = count if self_adjoint else -(-count // 2)
    sums = _pair_walk(f.descriptor, [g.coords for g, _ in terms], C, depth,
                      not self_adjoint, np.array(primes, dtype=np.int64)[:, None])
    return D, [_crt_symmetric(r, primes) for r in sums[: count + 1].tolist()]


def _walk_primes(coeffs, bound: int) -> tuple:
    """The fewest largest primes p below min(2^31, 2^53 / S), with S the sum
    of min(|c|, 2^30) over the integers coeffs, whose product exceeds
    4 * bound: (p - 1) S < 2^53 bounds every row sum of the exact walk, and
    CRT recovers every integer of magnitude at most bound.
    """
    S = max(1, sum(min(abs(c), 1 << 30) for c in coeffs))
    below = min(1 << 31, (1 << 53) // S)
    # primes near below exceed 2^bits, so (bit length of bound + 2) / bits of
    # them cover 4 * bound
    bits = max(1, below.bit_length() - 2)
    primes = _crt_primes(-(-(bound.bit_length() + 2) // bits), below)
    if primes[-1] >> bits == 0:
        raise DomainError("coefficients too large for the exact trace walk")
    return primes


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

    Pairs the three-term recurrence T_j+1 = 2 s T_j - T_j-1 with
    s = (2 f*f - (a+b) e) / (b-a) on group-ring coefficients, to half the
    degree; the recurrence is the numerically stable way to evaluate
    Chebyshev polynomials, and all coefficients stay bounded when [a, b]
    encloses the spectrum.
    """
    desc = f.descriptor
    g = ring.convolve(ring.adjoint(f), f)
    ident = groups.identity(desc).coords
    s = {h.coords: 2.0 * complex(v) / (b - a) for h, v in g.sorted_terms()}
    s[ident] = s.get(ident, 0.0) - (a + b) / (b - a)
    coords, values = zip(*sorted(s.items()))
    C = np.array([values], dtype=np.complex128)
    sums = _pair_walk(desc, coords, C, -(-degree // 2), True, chebyshev=True)
    traces = 2.0 * sums[: degree + 1, 0].real
    traces[0::2] -= 1.0                  # tr T_2j = 2 a_j - 1
    traces[1::2] -= sums[1:2, 0].real    # tr T_2j+1 = 2 b_j - b_0
    return traces.tolist()


def fk_poly_trace(f: RingElement, interval, degree: int):
    """FK log-determinant via an exactly traced polynomial approximant.

    Builds the degree-m Chebyshev interpolant Q of log on [a, b] (which must
    enclose the spectrum of f* f), evaluates tr Q(f* f) from the traces of
    the scaled Chebyshev polynomials (exact for int and rational f, each
    rounded once to float; a paired complex128 recurrence for complex f), and
    returns (value, bound) with bound = sup |Q - log| / 2 on [a, b], measured
    on a dense grid with a 5% safety factor.  A trace above 1 + 1e-9 in
    magnitude shows that [a, b] misses the spectrum (every |tr T~_k| <= 1
    when it encloses it); then a warning is issued and the bound is inf.
    """
    a, b = interval
    if not (0 < a <= b < math.inf):
        raise DomainError("interval must satisfy 0 < a <= b < inf")
    degree = groups._as_int(degree, "degree")
    if degree < 1:
        raise DomainError("degree must be a positive integer")
    if a == b:
        return 0.5 * math.log(a), 0.0

    from numpy.polynomial.chebyshev import Chebyshev

    if f.domain == ring.COMPLEX:
        # float coefficients: the monomial-moment route cancels catastrophically,
        # the paired Chebyshev recurrence is stable
        t_vals = _chebyshev_traces_float(f, float(a), float(b), degree)
    else:
        # Fraction refuses numpy float32 and float16; float() holds them exactly
        exact = [Fraction(x if isinstance(x, numbers.Rational) else float(x)) for x in (a, b)]
        t_vals = _chebyshev_traces_exact(f, *exact, degree)
    series = Chebyshev.interpolate(np.log, degree, domain=[float(a), float(b)])
    value = 0.5 * math.fsum(float(ck) * tk for ck, tk in zip(series.coef, t_vals))
    if max(abs(t) for t in t_vals) > 1.0 + 1e-9:
        warnings.warn(
            "Chebyshev traces exceed 1 in magnitude; the interval probably "
            "does not enclose the spectrum of f*f and the result is unreliable"
        )
        return value, math.inf
    grid = np.linspace(float(a), float(b), max(200 * degree, 2000) + 1)
    sup = float(np.max(np.abs(series(grid) - np.log(grid))))
    bound = 0.5 * sup * 1.05 + 1e-13
    return value, bound


# poly_trace_interval widens its enclosure by this fraction on each side
_INTERVAL_PADDING = 0.05


def poly_trace_interval(certificate: InvertibilityCertificate, f: RingElement):
    """Spectral enclosure [sigma_min^2, |f|_1^2] for f* f, padded outward."""
    if not certificate.certified:
        raise DomainError("certificate does not certify invertibility")
    a = certificate.sigma_lower ** 2
    b = float(ring.l1_norm(f)) ** 2
    return a * (1.0 - _INTERVAL_PADDING), b * (1.0 + _INTERVAL_PADDING)


# ---------------------------------------------------------------------------
# perturbed compressions (rational transfer blocks on quasitiled windows)

@dataclass(frozen=True)
class TileTransfer:
    tile_index: int
    denominator: int
    norm: float
    inverse_norm: float


@dataclass(frozen=True, eq=False)
class PerturbedCompression:
    """S, the perturbed compression of f to a quasitiled window, held only as
    its CompressionMatrix (exact rationals, window order) for logabsdet to
    factor; matrix builds the exact rows on request.  S - f_F vanishes outside
    the replaced columns, so rank_defect is the float rank of those alone."""

    compression: CompressionMatrix
    tiling: object         # dynamics.Tiling
    rank_defect: int
    denominator: int
    transfers: tuple = ()

    @property
    def matrix(self) -> tuple:
        return tuple(map(tuple, self.compression.to_exact_rows()))


def _pairwise_reduced(basis: list) -> list:
    """basis after b_j -= round(<b_j, b_i> / <b_i, b_i>) b_i over all pairs
    until every multiplier is 0: an exact unimodular change of basis that
    pulls nearly parallel vectors apart.  Each step shortens b_j (round()
    takes a tie at 1/2 to 0), so the loop ends."""
    B, changed = [list(v) for v in basis], True
    while changed:
        changed = False
        for i, bi in enumerate(B):
            ii = sum(x * x for x in bi)
            for j, bj in enumerate(B):
                q = round(Fraction(sum(map(operator.mul, bj, bi)), ii)) if j != i else 0
                if q:
                    B[j], changed = [x - q * y for x, y in zip(bj, bi)], True
    return B


def _near_orthonormal_rational_basis(null_basis: list):
    """Rational vectors close to an orthonormal basis of span(null_basis).

    Stays inside the exact null space: each output is an exact rational
    combination of the exact basis, with combination coefficients rounded
    from the least-squares coordinates of a numerical orthonormal basis.
    """
    n = len(null_basis[0])
    # rescale exact basis columns by powers of two for numerical sanity;
    # Fraction scales keep integer columns exact
    scaled = []
    for v in null_basis:
        nrm = math.sqrt(math.fsum(float(x) * float(x) for x in v))
        shift = int(round(math.log2(nrm))) if nrm > 0 else 0
        scale = Fraction(2) ** -shift
        scaled.append([x * scale for x in v])
    B = np.array([[float(x) for x in v] for v in scaled]).T  # n x r
    Q, _ = np.linalg.qr(B)
    # only the rounding of these coordinates depends on the denominator
    coords = [np.linalg.lstsq(B, q, rcond=None)[0].tolist() for q in Q.T]
    for log2_den in (20, 34, 48):
        vectors = []
        for c in coords:
            exact = [Fraction(0)] * n
            for cj, col in zip(c, scaled):
                cj_r = Fraction(round(cj * (1 << log2_den)), 1 << log2_den)
                if cj_r:
                    exact = [e + cj_r * x for e, x in zip(exact, col)]
            vectors.append(exact)
        Vf = np.array([[float(x) for x in v] for v in vectors]).T
        svals = np.linalg.svd(Vf, compute_uv=False)
        if svals.size and svals[0] <= 2.0 and svals[-1] >= 0.5:
            return vectors, float(svals[0]), float(1.0 / svals[-1])
    # nearly parallel columns, as Smith transforms give once the pivots leave
    # the units, lose part of their span in floats: pull them apart exactly
    reduced = _pairwise_reduced(null_basis)
    if reduced != [list(v) for v in null_basis]:
        return _near_orthonormal_rational_basis(reduced)
    raise RuntimeError("could not round the orthonormal null basis within norm bounds")


def _interior(W: FolnerWindow, kernel_coords) -> np.ndarray:
    """Mask of the points g of W with K g inside W."""
    return (groups.window_translates(W, kernel_coords) >= 0).all(axis=0)


def _replace_columns(M: CompressionMatrix, rows, cols, vals) -> CompressionMatrix:
    """M with every column named in ``cols`` replaced by the triples (rows,
    cols, vals), which follow M's other triples; those keep their order.
    The new values are appended to M's coefficients, one per triple."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    cleared = np.zeros(M.n, dtype=bool)
    cleared[cols] = True
    keep = ~cleared[M.cols]
    term = len(M.coeffs) + np.arange(len(vals), dtype=np.int64)
    return CompressionMatrix(M.window, np.concatenate([M.rows[keep], rows]),
                             np.concatenate([M.cols[keep], cols]),
                             np.concatenate([M.term[keep], term]),
                             M.coeffs + tuple(vals), M.domain)


def build_perturbed_compression(
    f: RingElement,
    F: FolnerWindow,
    tiles: Sequence[FolnerWindow],
    epsilon: float,
):
    """The compression S that perturbs f_F to a block-invertible operator.

    Quasitiles F by the given tiles (pairwise-disjoint mode).  On each
    placed tile W the interior W' = {g : K_f g inside W} carries f itself;
    the complement columns carry a rational near-orthonormal basis of the
    orthogonal complement of f C[W'] in C[W], with transfer norms and
    inverse norms at most 2; uncovered window points carry the identity.
    That complement is the kernel of f's interior columns read as rows,
    exact from their Smith form (V^-1's columns past the rank), and the
    basis is rounded from it without leaving it.
    The perturbation S - f_F is supported on at most |F \\ F'| columns and
    M * (those columns) is integral for the reported denominator M.
    """
    from . import dynamics

    if any(W.descriptor != f.descriptor for W in (F, *tiles)):
        raise DescriptorMismatch("window or tile over a different group than f")
    if f.domain != ring.INT:
        raise DomainError("perturbed compressions need exact-integer symbols")
    if not (0 < epsilon < 2):
        raise DomainError("epsilon must lie in (0, 2)")
    _, kernel = ring.l1_norm_and_kernel(f)
    kernel_coords = [k.coords for k in kernel]

    interiors = []
    for t_idx, W in enumerate(tiles):
        interior = _interior(W, kernel_coords)
        inner = int(np.count_nonzero(interior))
        if inner < (1 - epsilon / 2) * len(W):
            raise DomainError(
                f"tile {t_idx} violates the interior condition: "
                f"{inner}/{len(W)} interior points at epsilon={epsilon}"
            )
        interiors.append(interior)

    # the tiling epsilon (coverage target) is separate from the interior
    # level and must fit quasitile's (0, 1/2) contract
    tiling = dynamics.quasitile(F, tiles, min(epsilon / 2, 0.499), mode="pairwise-disjoint")

    # per tile shape: the nonzero transfer entries as tile rows, tile columns
    # (complement points) and values, and the positions in F of W.F[j] in
    # column j.  Interior columns keep f's column, which lies inside the tile
    # translate; every transfer vector is nonzero.
    shape_data = {}
    for t_idx in sorted({ti for ti, _ in tiling.placements}):
        W = tiles[t_idx]
        inner = np.flatnonzero(interiors[t_idx]).tolist()
        comp = np.flatnonzero(~interiors[t_idx])
        if len(comp):
            # f's interior columns read as rows, At = U D V: the columns of
            # V^-1 past the nonzero divisors are an integer kernel basis
            fW = compress(f, W).to_int_rows()
            res = snf([[row[j] for row in fW] for j in inner])
            rank = sum(1 for d in res.divisors if d)
            null_basis = list(zip(*res.v_inverse))[rank:]
            if len(null_basis) != len(comp):
                raise DomainError(
                    f"tile {t_idx}: f is rank-deficient on the tile interior; "
                    "is f invertible?"
                )
            vectors, nrm, inv_nrm = _near_orthonormal_rational_basis(null_basis)
            mj = math.lcm(*(x.denominator for v in vectors for x in v))
        else:
            vectors, nrm, inv_nrm, mj = [], 1.0, 1.0, 1
        V = np.array(vectors, dtype=object).reshape(len(comp), len(W))
        k, tile_rows = np.nonzero(V)
        pos = groups.window_translates(F, W.coords)
        shape_data[t_idx] = (tile_rows, comp[k], V[k, tile_rows].tolist(), pos,
                             TileTransfer(t_idx, mj, nrm, inv_nrm))

    rows, cols, vals = [], [], []
    covered = np.zeros(len(F), dtype=bool)
    for t_idx, center in tiling.placements:
        tile_rows, tile_cols, values, pos, _ = shape_data[t_idx]
        translate = pos[:, F.index[center]]
        covered[translate] = True
        rows.append(translate[tile_rows])
        cols.append(translate[tile_cols])
        vals += values
    uncovered = np.flatnonzero(~covered)
    base = compress(ring.ring_element(f.descriptor, f.terms, ring.RATIONAL), F)
    cols = np.concatenate(cols + [uncovered])
    S = _replace_columns(base, np.concatenate(rows + [uncovered]), cols,
                         vals + [Fraction(1)] * len(uncovered))

    diff = (S.to_csc() - base.to_csc())[:, np.unique(cols)]
    rank_defect = int(np.linalg.matrix_rank(diff.toarray())) if diff.nnz else 0
    transfers = tuple(shape_data[t_idx][-1] for t_idx in sorted(shape_data))
    return PerturbedCompression(
        compression=S,
        tiling=tiling,
        rank_defect=rank_defect,
        denominator=math.prod(t.denominator for t in transfers),
        transfers=transfers,
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
    return ConvergenceTable(
        f"fk determinant, rank-{rank_fraction} unit-column perturbations (seed {seed})",
        _section_rows(f, schedule, "perturbed",
                      lambda M, kernel: _unit_columns(M, kernel, rank_fraction, seed)),
    )


def _unit_columns(M: CompressionMatrix, kernel, rank_fraction: float, seed: int):
    """M with floor(rank_fraction * n) columns replaced by unit vectors,
    chosen as perturbation_study describes.
    """
    F = M.window
    k = int(math.floor(rank_fraction * len(F)))
    replaced: list[int] = []
    if k:
        boundary = np.flatnonzero(~_interior(F, [kk.coords for kk in kernel])).tolist()
        if k <= len(boundary):
            replaced = boundary[:k]
        else:
            rng = np.random.default_rng(seed)
            rest = np.setdiff1d(np.arange(len(F)), np.array(boundary, dtype=int))
            extra = rng.choice(rest, size=k - len(boundary), replace=False)
            replaced = sorted(boundary + [int(x) for x in extra])
    one = ring._coerce(1, M.domain)
    return _replace_columns(M, replaced, replaced, [one] * len(replaced))
