"""The dynamical side over finite groups, plus quasitiling and lattice balls.

For a finite group G and an integer symbol f, the dual solution set is

    X_f = { h in (R/Z)^G : the convolution f.h has integral coordinates }.

When the full-group compression M is nonsingular, X_f is finite with
exactly |det M| elements, enumerated through the Smith normal form:
with M = U D V, the solutions are h = V^-1 y over y_i in {0, 1/d_i, ...},
one axis per factor d_i > 1, each verified exactly in modular arithmetic.
Only those columns of V^-1 are read, modulo lcm(d), since snf's
transforms leave 64 bits: it pivots large blocks on their Hermite basis
modulo |det M|, and on the 144-point compression of 6 + x - x^-1 + y -
y^-1 + xy over (Z/12)^2 its V^-1 reaches 2072 bits for a 384-bit |det M|
(7144 by pivoting alone).  The solutions come in lexicographic order,
whatever pivots the Smith form takes.
entropy_finite_group compresses once and reads the Smith order from that
dual's own Smith form; det_exact's |det M| is its independent check, by
an elimination of its own: sparse unit pivots, then fraction-free Bareiss
on the block they leave.

Separated and spanning counts (the l^p Bowen entropy at finite scale)
never leave the integers: a dual's solutions are int64 numerators over one
denominator D, and any other point set is put over the lcm of its
denominators.  One kernel, _relation_bitsets, compares the l^1, l^2 or
l^inf orbit statistic of every pair with eps exactly, by cross-multiplying,
in row blocks, and returns the relation as one Python-int bitset per point.
The exact searches run on those bitsets: a maximum clique by Tomita and
Seki's colouring bound (MCQ) and a minimum cover bounded by disjoint balls,
each split over the components of the graph that makes it separable.

quasitile reads every tile translate from groups.window_translates;
verify_tiling re-checks a tiling element by element on purpose, so that it
stays independent of the kernel it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DescriptorMismatch, DomainError, ScaleExceeded, SingularCompression
from . import groups, ring
from .det import SnfResult, quotient_order, snf, det_exact
from .groups import FolnerWindow, GroupDescriptor, GroupElement
from .ring import RingElement
from .sections import compress

EXTREMAL_SCALE_LIMIT = 4096
DUAL_HARD_LIMIT = 200_000
BALL_DIM_LIMIT = 6
BALL_RADIUS_LIMIT = 40


@dataclass(frozen=True)
class TorusVector:
    """A point of (R/Z)^G, coordinates indexed by the group window order."""

    window: FolnerWindow
    values: tuple  # Fractions (exact) or floats, each in [0, 1)

    def __post_init__(self):
        if len(self.values) != len(self.window):
            raise DomainError("coordinate count must match the window")
        if any(not (0 <= v < 1) for v in self.values):
            raise DomainError("coordinates must lie in [0, 1)")

    def coordinate(self, g: GroupElement):
        return self.values[self.window.index[g]]

    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)


def shift(h: TorusVector, gamma: GroupElement) -> TorusVector:
    """Right shift: (gamma h) at g' is h at g' gamma."""
    w = h.window
    new_vals = tuple(
        h.values[w.index[groups.multiply(gp, gamma)]] for gp in w.elements
    )
    return TorusVector(w, new_vals)


def circle_distance(s, t):
    """Distance on R/Z: min over integers m of |s - t - m|."""
    d = (s - t) % 1
    return min(d, 1 - d)


@dataclass(frozen=True, eq=False)
class DualSolutionSet:
    """All solutions of f.h = 0 on the dual of a finite group.

    numerators[i] / denominator are the coordinates of solution i; the
    TorusVector list is built on first use, and only up to materialize_limit
    (the count can exceed any enumeration budget while staying exact).
    Sets compare and hash by identity, as numerators is an array.
    """

    window: FolnerWindow
    count: int
    denominator: int
    numerators: np.ndarray
    snf_result: SnfResult
    materialize_limit: int = EXTREMAL_SCALE_LIMIT

    def __len__(self):
        return self.count

    @cached_property
    def solutions(self) -> Optional[tuple]:
        if self.count > self.materialize_limit:
            return None
        D = self.denominator
        return tuple(TorusVector(self.window, tuple(Fraction(int(v), D) for v in row))
                     for row in self.numerators)

    def vectors(self):
        if self.solutions is None:
            raise ScaleExceeded(
                f"{self.count} solutions exceed the materialization limit"
            )
        return self.solutions

    def to_csv(self) -> str:
        header = ",".join("c" + "_".join(str(x) for x in c) for c in self.window.coords)
        lines = [header]
        for row in np.asarray(self.numerators):
            lines.append(",".join(f"{int(v)}/{self.denominator}" for v in row))
        return "\n".join(lines) + "\n"


def _finite_window(group, caller: str) -> FolnerWindow:
    """group itself when it is a window, else the whole of a finite group."""
    if isinstance(group, FolnerWindow):
        return group
    if not isinstance(group, GroupDescriptor) or not group.is_finite:
        raise DomainError(f"{caller} needs a finite group")
    return groups.folner_window(group, 1)


def solve_dual_finite(
    f: RingElement,
    group,
    materialize_limit: int = EXTREMAL_SCALE_LIMIT,
    hard_limit: int = DUAL_HARD_LIMIT,
    *,
    rows=None,
) -> DualSolutionSet:
    """Enumerate X_f for a finite group through the Smith normal form.

    rows is the integer compression of f over the window when the caller
    already holds it; otherwise f is compressed here.  Every solution is
    verified exactly: with common denominator D, the numerator matrix H must
    satisfy H M^T = 0 mod D, and its rows must be pairwise distinct.  The
    rows come in lexicographic order, so the order of numerators (and of
    everything read from it) does not depend on the Smith form's pivots.
    """
    window = _finite_window(group, "solve_dual_finite")
    if f.domain != ring.INT:
        raise DomainError("dual solution sets need exact-integer symbols")
    M = compress(f, window).to_int_rows() if rows is None else rows
    res = snf(M, transforms=True)
    count = quotient_order(res)
    if count is math.inf:
        raise SingularCompression("the compression is singular: X_f is infinite")
    if count > hard_limit:
        raise ScaleExceeded(f"{count} solutions exceed the enumeration limit {hard_limit}")

    n = len(window)
    D = math.lcm(*res.divisors)
    # the products below stay under n D^2; D <= count, so only a raised
    # hard_limit with at least 2^31 / sqrt(n) solutions gets past int64
    if n * D * D >= 2 ** 62:
        raise ScaleExceeded(f"denominator {D} over {n} points leaves int64")
    # y_i runs over Z/d_i, so only the factors d > 1 vary (at most log2 count
    # axes); only their columns of V^-1 are reduced mod D, as unimodular
    # inverses can leave 64 bits
    axes = [i for i, d in enumerate(res.divisors) if d > 1]
    dims = [res.divisors[i] for i in axes]
    Y = np.indices(dims, dtype=np.int64).reshape(len(axes), count).T  # count x len(axes)
    scale = np.array([D // d for d in dims], dtype=np.int64)
    Vinv = np.array([[row[i] % D for i in axes] for row in res.v_inverse], dtype=np.int64)
    H = (Y * scale) @ Vinv.T % D

    Mmat = np.array([[x % D for x in row] for row in M], dtype=np.int64)
    check = H @ Mmat.T % D
    if np.any(check):
        raise AssertionError("dual solution verification failed")
    # lexicographic rows, whatever pivots the Smith form chose
    H = np.unique(H, axis=0)
    if len(H) != count:
        raise AssertionError("dual solutions are not pairwise distinct")
    return DualSolutionSet(window, count, D, H, res, materialize_limit)


# ---------------------------------------------------------------------------
# orbit pseudometrics and extremal counts

def orbit_distance(x: TorusVector, y: TorusVector, F, p) -> float:
    """Normalized l^p aggregation of the circle distance along the orbit.

    Through the right shift, the coordinate of gamma.x at the identity is
    x at gamma, so the aggregation runs directly over the coordinates at F.
    """
    if x.window != y.window:
        raise DomainError("points live over different windows")
    cols = _columns(x.window, F)
    if not cols:
        raise DomainError("F must be nonempty")
    dists = [circle_distance(x.values[c], y.values[c]) for c in cols]
    if p == math.inf or p == "inf":
        return float(max(dists))
    if p == 1:
        return float(sum(dists)) / len(dists)
    if p == 2:
        return math.sqrt(float(sum(d * d for d in dists)) / len(dists))
    raise DomainError("p must be 1, 2 or inf")


def _columns(window: FolnerWindow, F) -> list:
    """The positions in window of F, a window or a sequence of elements."""
    if isinstance(F, FolnerWindow) and F == window:
        return list(range(len(window)))
    elems = list(F.elements if isinstance(F, FolnerWindow) else F)
    if any(g.descriptor != window.descriptor for g in elems):
        raise DescriptorMismatch("an element of F lies over another group")
    if not all(g in window.index for g in elems):
        raise DomainError("an element of F lies outside the points' window")
    return [window.index[g] for g in elems]


# rows per block of the relation kernel are chosen so that one block's
# (rows x m x |F|) arrays stay near this many entries (128 KiB as int64);
# on the 129-point dual this was faster than 2^17 entries and peaked at
# a fifth of the memory
_RELATION_BLOCK = 1 << 14


def _relation_bitsets(H: np.ndarray, D: int, p, eps: Fraction) -> list[int]:
    """Bit j of row i is set when d(x_i, x_j) > eps (strict), i != j.

    Row i of H holds the numerators over D (each in [0, D)) of x_i at the
    positions of F.  Circle distances are counted in units of 1/D, and each
    statistic is compared with eps = a/b (a, b > 0) by cross-multiplying:

        l^inf:  b max       > a D          <=>  max   > floor(a D / b)
        l^1:    b sum       > a |F| D      <=>  sum   > floor(a |F| D / b)
        l^2:    b^2 sumsq   > a^2 |F| D^2  <=>  sumsq > floor(a^2 |F| D^2 / b^2)

    No statistic exceeds |F| D^2 / 4, so int64 holds every value whenever
    |F| D^2 < 2^62 (the threshold is capped there too); otherwise the arrays
    hold Python ints.  Rows go in blocks, so the full m x m x |F| array of
    distances is never built.
    """
    m, k = H.shape
    a, b = eps.numerator, eps.denominator
    half = D // 2
    if p == math.inf or p == "inf":
        thr, top = a * D // b, half
    elif p == 1:
        thr, top = a * k * D // b, k * half
    else:
        thr, top = a * a * k * D * D // (b * b), k * half * half
    thr = min(thr, top)
    dtype = np.int64 if k * D * D < 2 ** 62 else object
    H = np.asarray(H).astype(dtype)
    step = max(1, _RELATION_BLOCK // max(1, m * k))
    bits: list[int] = []
    for i0 in range(0, m, step):
        diff = np.abs(H[i0:i0 + step, None, :] - H[None, :, :])
        dist = np.minimum(diff, D - diff)
        if p == math.inf or p == "inf":
            stat = dist.max(axis=2)
        elif p == 1:
            stat = dist.sum(axis=2)
        else:
            stat = (dist * dist).sum(axis=2)
        sep = stat > thr
        rows = np.arange(sep.shape[0])
        sep[rows, i0 + rows] = False
        packed = np.packbits(sep, axis=1, bitorder="little")
        bits.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return bits


def _bits(s: int):
    """The positions of the set bits of s, in increasing order."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _components(near: list[int]) -> list[int]:
    """Connected components, as bitsets, of the graph whose closed
    neighbourhoods are the bitsets near[v]."""
    remaining = (1 << len(near)) - 1
    comps = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            low = frontier & -frontier
            grown = near[low.bit_length() - 1] & ~comp
            comp |= grown
            frontier = (frontier ^ low) | grown
        comps.append(comp)
        remaining &= ~comp
    return comps


def _max_clique(adj: list[int]) -> tuple[int, int]:
    """Exact maximum clique size plus the greedy lower bound.

    adj[v] is the neighbourhood of v as a bitset.  The greedy clique visits
    nodes by decreasing degree, ties by index.  Nodes in different
    components of the complement graph are all adjacent, so the maximum
    clique is the sum of the maxima over those components; each is found
    by Tomita and Seki's MCQ (DMTCS 2003) on bitsets, seeded by the greedy
    clique's share.  Nodes are relabelled in the greedy order, each branch
    colours its candidates greedily, and a candidate whose colour number
    cannot lift the clique above the best size found is cut together with
    every candidate coloured before it.
    """
    m = len(adj)
    order = sorted(range(m), key=lambda v: -adj[v].bit_count())
    greedy = 0
    for v in order:
        if adj[v] & greedy == greedy:
            greedy |= 1 << v

    # relabel: bit i stands for node order[i]
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [sum(1 << pos[u] for u in _bits(adj[v])) for v in order]
    start = sum(1 << pos[v] for v in _bits(greedy))

    def colour_sort(cand: int):
        nodes, colours = [], []
        colour = 0
        while cand:
            colour += 1
            free = cand
            while free:
                low = free & -free
                v = low.bit_length() - 1
                free &= ~nbrs[v] & ~low
                cand ^= low
                nodes.append(v)
                colours.append(colour)
        return nodes, colours

    def expand(size: int, cand: int):
        nonlocal best
        nodes, colours = colour_sort(cand)
        for v, colour in zip(reversed(nodes), reversed(colours)):
            if size + colour <= best:
                return
            sub = cand & nbrs[v]
            if sub:
                expand(size + 1, sub)
            elif size + 1 > best:
                best = size + 1
            cand &= ~(1 << v)

    full = (1 << m) - 1
    total = 0
    for comp in _components([full ^ row for row in nbrs]):
        best = (start & comp).bit_count()
        expand(0, comp)
        total += best
    return total, greedy.bit_count()


def _min_cover(balls: list[int]) -> int:
    """Exact minimum number of balls covering every point.

    balls[i] is the closed eps-ball around point i as a bitset; the relation
    is symmetric, so the balls that contain point x are those centred in
    balls[x], and a ball never leaves the component of its centre in the
    graph of the balls.  The minimum is the sum over those components.
    Each component starts from a greedy cover; each branch covers the
    uncovered point with the fewest covering balls, skipping a ball whose
    uncovered share lies inside another's, and is cut by two lower
    bounds: the uncovered count over the largest ball, and a set of
    uncovered points whose balls are pairwise disjoint (no ball contains
    two of them, so each needs its own).
    """
    m = len(balls)
    maxball = max(b.bit_count() for b in balls)
    # points in order of fewest covering balls, ties by index
    by_degree = sorted(range(m), key=lambda x: balls[x].bit_count())

    def search(uncovered: int, used: int):
        nonlocal best
        if not uncovered:
            best = min(best, used)
            return
        if used + -(-uncovered.bit_count() // maxball) >= best:
            return
        packing, blocked, target = 0, 0, -1
        for x in by_degree:
            if uncovered >> x & 1 and not balls[x] & blocked:
                if target < 0:
                    target = x
                packing += 1
                blocked |= balls[x]
        if used + packing >= best:
            return
        # the uncovered shares of the balls containing target, largest
        # first; a share inside another one is never needed
        shares = sorted({balls[c] & uncovered for c in _bits(balls[target])},
                        key=lambda s: -s.bit_count())
        kept: list[int] = []
        for s in shares:
            if all(s & ~k for k in kept):
                kept.append(s)
                search(uncovered & ~s, used + 1)

    total = 0
    for comp in _components(balls):
        best, covered = 0, 0
        while covered != comp:
            pick = max(_bits(comp), key=lambda i: (balls[i] & ~covered).bit_count())
            covered |= balls[pick]
            best += 1
        search(comp, 0)
        total += best
    return total


def _extremal_relation(S, F, p, eps) -> list[int]:
    """The checks every extremal count shares, then the separated relation
    of the points of S over F as one bitset per point."""
    if not (p == math.inf or p == "inf" or p == 1 or p == 2):
        raise DomainError("p must be 1, 2 or inf")
    points = None if isinstance(S, DualSolutionSet) else list(S)
    count = S.count if points is None else len(points)
    if count > EXTREMAL_SCALE_LIMIT:
        raise ScaleExceeded(f"{count} points exceed the brute-force scale")
    if not count:
        raise DomainError("empty point set")
    if points is None:
        H, D = np.asarray(S.numerators)[:, _columns(S.window, F)], S.denominator
    else:
        # exact values over one denominator; a float enters by its binary value
        rows = [[Fraction(pt.values[c]) for c in _columns(pt.window, F)] for pt in points]
        D = math.lcm(*(x.denominator for row in rows for x in row))
        H = np.array([[x.numerator * (D // x.denominator) for x in row] for row in rows],
                     dtype=object).reshape(count, len(rows[0]))
    if not abs(eps) < math.inf:
        raise DomainError("eps must be finite")
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    return _relation_bitsets(H, D, p, eps)


def extremal_count(S, F, p, eps, mode: str) -> int:
    """Maximal separated or minimal spanning cardinality, both exact.

    S is a DualSolutionSet, whose integer numerators feed the relation
    directly (materialized or not), or a sequence of TorusVectors, whose
    coordinates are taken exactly (floats by their binary value) over one
    common denominator.  p is 1, 2 or inf, and eps > 0; the relation
    d > eps (strict) is computed exactly on integers by the row-blocked
    kernel _relation_bitsets.  Separated: maximum clique of that graph, a
    greedy clique refined by MCQ's colouring-bounded branch-and-bound.  Spanning:
    exact minimum set cover by the closed eps-balls, bounded by disjoint
    balls around uncovered points.  Point sets above 4096 are rejected, not
    approximated; that limit bounds memory (m^2 bits of relation), while
    search time depends on the graph, exponential in the worst case.
    """
    sep = _extremal_relation(S, F, p, eps)
    if mode == "separated":
        return _max_clique(sep)[0]
    if mode == "spanning":
        full = (1 << len(sep)) - 1
        return _min_cover([full ^ row for row in sep])
    raise DomainError("mode must be 'separated' or 'spanning'")


def separated_count_with_greedy(S, F, p, eps) -> tuple[int, int]:
    """(exact separated count, greedy lower bound) for reporting."""
    return _max_clique(_extremal_relation(S, F, p, eps))


# ---------------------------------------------------------------------------
# entropy on finite groups

@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    group_order: int
    quotient_order: int
    abs_det: int
    solution_count: Optional[int]
    dual_enumerated: bool


def entropy_finite_group(
    f: RingElement,
    group,
    enumeration_limit: int = 65536,
) -> EntropyEstimate:
    """log|X_f| / |G| with its two cross-checks.

    The Smith-normal-form order always equals |det| of the compression
    (asserted exactly).  When |det| fits under enumeration_limit the dual is
    enumerated on the same compression and the order is read from its Smith
    form; otherwise only the divisors are computed.
    """
    window = _finite_window(group, "entropy_finite_group")
    M = compress(f, window).to_int_rows()
    adet = abs(det_exact(M))
    if adet == 0:
        raise SingularCompression("singular compression: entropy is infinite")
    dual = (solve_dual_finite(f, window, 0, adet, rows=M)
            if adet <= enumeration_limit else None)
    order = quotient_order(snf(M, transforms=False) if dual is None else dual.snf_result)
    if adet != order:
        raise AssertionError("Smith order disagrees with the exact determinant")
    value = math.log(order) / len(window)
    count = None if dual is None else dual.count
    return EntropyEstimate(value, len(window), order, adet, count, dual is not None)


# ---------------------------------------------------------------------------
# lattice points in euclidean balls

def count_lattice_ball(k: int, R) -> int:
    """Exact number of integer vectors in dimension k with l2 norm <= R."""
    k = groups._as_int(k, "dimension")
    if not 1 <= k <= BALL_DIM_LIMIT:
        raise ScaleExceeded(f"dimension must be an integer in [1, {BALL_DIM_LIMIT}]")
    if not abs(R) < math.inf:
        raise DomainError("radius must be finite")
    R = Fraction(R)
    if R < 0:
        raise DomainError("radius must be nonnegative")
    r2 = R ** 2
    if r2 > BALL_RADIUS_LIMIT ** 2:
        raise ScaleExceeded(f"radius must be at most {BALL_RADIUS_LIMIT}")

    def recurse(dim: int, budget: Fraction) -> int:
        if budget < 0:
            return 0
        top = math.isqrt(int(budget))
        if dim == 1:
            return 2 * top + 1
        total = recurse(dim - 1, budget)
        for x in range(1, top + 1):
            total += 2 * recurse(dim - 1, budget - x * x)
        return total

    return recurse(k, r2)


# ---------------------------------------------------------------------------
# quasitiling

@dataclass(frozen=True)
class Tiling:
    """A greedy quasitiling of a window by translated tiles."""

    window: FolnerWindow
    tiles: tuple
    placements: tuple       # (tile_index, center) in placement order
    coverage: Fraction
    mode: str
    eps: float


_MODES = {"pairwise-disjoint", "epsilon-disjoint"}


def quasitile(
    F: FolnerWindow,
    tiles: Sequence[FolnerWindow],
    eps: float,
    mode: str = "pairwise-disjoint",
) -> Tiling:
    """Greedy tile placement, largest tiles first, centers in window order.

    A center c is accepted for tile W when W.c lies inside F and the overlap
    with already-covered points is zero (pairwise mode) or below eps|W|
    (epsilon mode).  Coverage below 1 - eps is reported as data, never
    silently repaired: the greedy scan carries no general guarantee.
    """
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {sorted(_MODES)}")
    if not (0 < eps < 0.5):
        raise DomainError("eps must lie in (0, 1/2)")
    tiles = list(tiles)
    if not tiles:
        raise DomainError("need at least one tile")
    for W in tiles:
        if W.descriptor != F.descriptor:
            raise DescriptorMismatch("tiles must live over the window's group")
    order = sorted(range(len(tiles)), key=lambda i: (-len(tiles[i]), i))
    covered = np.zeros(len(F), dtype=bool)
    placements = []
    for ti in order:
        W = tiles[ti]
        # column j holds the positions in F of W.F[j]
        pos = groups.window_translates(F, W.coords)
        for j in np.flatnonzero((pos >= 0).all(axis=0)).tolist():
            translate = pos[:, j]
            overlap = int(np.count_nonzero(covered[translate]))
            if mode == "pairwise-disjoint":
                if overlap:
                    continue
            elif overlap >= eps * len(W):
                continue
            covered[translate] = True
            placements.append((ti, GroupElement(F.descriptor, F.coords[j])))
    coverage = Fraction(int(np.count_nonzero(covered)), len(F))
    return Tiling(F, tuple(tiles), tuple(placements), coverage, mode, eps)


def verify_tiling(t: Tiling) -> None:
    """Independent re-check of the tiling postconditions.

    Raises AssertionError on violation: containment of every translate,
    the disjointness claim of the mode (zero overlap, or overlap below
    eps times the tile size in placement order), and the coverage ratio.
    """
    mul = groups.coordinate_multiplier(t.window.descriptor)
    fcoords = set(t.window.coords)
    covered: set = set()
    for ti, c in t.placements:
        translate = [mul(w, c.coords) for w in t.tiles[ti].coords]
        if any(x not in fcoords for x in translate):
            raise AssertionError("tile translate escapes the window")
        overlap = sum(1 for x in translate if x in covered)
        if t.mode == "pairwise-disjoint" and overlap:
            raise AssertionError("pairwise-disjoint mode produced an overlap")
        if t.mode == "epsilon-disjoint" and overlap >= t.eps * len(translate):
            raise AssertionError("a translate overlaps beyond the eps budget")
        covered.update(translate)
    if Fraction(len(covered), len(t.window)) != t.coverage:
        raise AssertionError("coverage ratio does not match the covered set")
