"""The dynamical side over finite groups, plus quasitiling and lattice balls.

For a finite group G and an integer symbol f, the dual solution set is

    X_f = { h in (R/Z)^G : the convolution f.h has integral coordinates }.

When the full-group compression M is nonsingular, X_f is finite with
exactly |det M| elements, enumerated through the Smith normal form:
with M = U D V, the solutions are h = V^-1 y over y_i in {0, 1/d_i, ...},
each verified exactly in modular arithmetic.

quasitile reads every tile translate from groups.window_translates;
verify_tiling re-checks a tiling element by element on purpose, so that it
stays independent of the kernel it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ScaleExceeded, SingularCompression
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


@dataclass(frozen=True)
class DualSolutionSet:
    """All solutions of f.h = 0 on the dual of a finite group.

    numerators[i] / denominator are the coordinates of solution i; the
    TorusVector list is materialized only up to materialize_limit (the
    count can exceed any enumeration budget while staying exact).
    """

    window: FolnerWindow
    count: int
    denominator: int
    numerators: np.ndarray
    snf_result: SnfResult
    solutions: Optional[tuple]

    def __len__(self):
        return self.count

    def vectors(self):
        if self.solutions is None:
            raise ScaleExceeded(
                f"{self.count} solutions exceed the materialization limit"
            )
        return self.solutions

    def to_csv(self) -> str:
        header = ",".join("c" + "_".join(str(x) for x in g.coords) for g in self.window.elements)
        lines = [header]
        for row in np.asarray(self.numerators):
            lines.append(",".join(f"{int(v)}/{self.denominator}" for v in row))
        return "\n".join(lines) + "\n"


def solve_dual_finite(
    f: RingElement,
    group,
    materialize_limit: int = EXTREMAL_SCALE_LIMIT,
    hard_limit: int = DUAL_HARD_LIMIT,
) -> DualSolutionSet:
    """Enumerate X_f for a finite group through the Smith normal form.

    Every solution is verified exactly: with common denominator D, the
    numerator matrix H must satisfy H M^T = 0 mod D, and its rows must be
    pairwise distinct.
    """
    if isinstance(group, FolnerWindow):
        window = group
        desc = window.descriptor
    else:
        desc = group
        if not isinstance(desc, GroupDescriptor) or not desc.is_finite:
            raise DomainError("solve_dual_finite needs a finite group")
        window = groups.folner_window(desc, 1)
    if f.domain != ring.INT:
        raise DomainError("dual solution sets need exact-integer symbols")
    M = compress(f, window).to_int_rows()
    res = snf(M, transforms=True)
    if any(d == 0 for d in res.divisors):
        raise SingularCompression("the compression is singular: X_f is infinite")
    count = 1
    for d in res.divisors:
        count *= d
    if count > hard_limit:
        raise ScaleExceeded(f"{count} solutions exceed the enumeration limit {hard_limit}")

    n = len(window)
    D = 1
    for d in res.divisors:
        D = D * d // math.gcd(D, d)
    # int64 is safe while n * D^2 fits; otherwise fall back to Python ints
    dtype = np.int64 if n * D * D < 2 ** 62 else object
    scale = np.array([D // d for d in res.divisors], dtype=dtype)
    # reduce mod D before the conversion: unimodular inverses can carry
    # entries far beyond 64 bits
    Vinv = np.array([[x % D for x in row] for row in res.v_inverse], dtype=dtype)
    grids = np.meshgrid(*[np.arange(d) for d in res.divisors], indexing="ij")
    Y = np.stack([g.ravel() for g in grids], axis=1).astype(dtype)  # count x n
    H = (Y * scale) @ Vinv.T % D

    Mmat = np.array([[x % D for x in row] for row in M], dtype=dtype)
    check = H @ Mmat.T % D
    if np.any(check):
        raise AssertionError("dual solution verification failed")
    if dtype is object:
        distinct = len({tuple(int(v) for v in row) for row in H})
    else:
        distinct = len(np.unique(H, axis=0))
    if distinct != count:
        raise AssertionError("dual solutions are not pairwise distinct")

    solutions = None
    if count <= materialize_limit:
        solutions = tuple(
            TorusVector(window, tuple(Fraction(int(num), D) for num in row))
            for row in H
        )
    return DualSolutionSet(window, count, D, H, res, solutions)


# ---------------------------------------------------------------------------
# orbit pseudometrics and extremal counts

def orbit_distance(x: TorusVector, y: TorusVector, F, p) -> float:
    """Normalized l^p aggregation of the circle distance along the orbit.

    Through the right shift, the coordinate of gamma.x at the identity is
    x at gamma, so the aggregation runs directly over the coordinates at F.
    """
    if x.window != y.window:
        raise DomainError("points live over different windows")
    elems = list(F.elements if isinstance(F, FolnerWindow) else F)
    if not elems:
        raise DomainError("F must be nonempty")
    dists = [circle_distance(x.coordinate(g), y.coordinate(g)) for g in elems]
    if p == math.inf or p == "inf":
        return float(max(dists))
    if p == 1:
        return float(sum(dists)) / len(dists)
    if p == 2:
        return math.sqrt(float(sum(d * d for d in dists)) / len(dists))
    raise DomainError("p must be 1, 2 or inf")


def _pairwise_relation(points, elems, p, eps):
    """Exact boolean matrices: d > eps (strict) and d <= eps."""
    eps = Fraction(eps) if all(pt.is_exact() for pt in points) else float(eps)
    m = len(points)
    coord_rows = []
    for pt in points:
        coord_rows.append([pt.coordinate(g) for g in elems])
    sep = [[False] * m for _ in range(m)]
    near = [[True] * m for _ in range(m)]
    nF = len(elems)
    if p == 2:
        thr = eps * eps * nF
    elif p == 1:
        thr = eps * nF
    else:
        thr = eps
    for i in range(m):
        for j in range(i + 1, m):
            if p == math.inf or p == "inf":
                stat = max(circle_distance(a, b) for a, b in zip(coord_rows[i], coord_rows[j]))
            elif p == 1:
                stat = sum(circle_distance(a, b) for a, b in zip(coord_rows[i], coord_rows[j]))
            else:
                stat = sum(
                    circle_distance(a, b) ** 2
                    for a, b in zip(coord_rows[i], coord_rows[j])
                )
            gt = stat > thr
            sep[i][j] = sep[j][i] = gt
            near[i][j] = near[j][i] = not gt
    return sep, near


def _max_clique(adj) -> tuple[int, int]:
    """Exact maximum clique size plus the greedy lower bound."""
    m = len(adj)
    order = sorted(range(m), key=lambda v: -sum(adj[v]))
    greedy: list[int] = []
    for v in order:
        if all(adj[v][u] for u in greedy):
            greedy.append(v)
    best = len(greedy)

    neighbors = [frozenset(u for u in range(m) if adj[v][u]) for v in range(m)]

    def expand(size: int, cand: frozenset):
        nonlocal best
        if size + len(cand) <= best:
            return
        if not cand:
            best = max(best, size)
            return
        rest = set(cand)
        while rest:
            if size + len(rest) <= best:
                return
            v = max(rest, key=lambda u: len(neighbors[u] & rest))
            rest.discard(v)
            expand(size + 1, frozenset(rest) & neighbors[v])

    expand(0, frozenset(range(m)))
    return best, len(greedy)


def _min_cover(balls) -> int:
    """Exact minimum number of balls covering every point."""
    m = len(balls)
    universe = frozenset(range(m))
    greedy_cover = 0
    covered: set = set()
    while covered != universe:
        pick = max(range(m), key=lambda i: len(balls[i] - covered))
        covered |= balls[pick]
        greedy_cover += 1
    best = greedy_cover
    maxball = max(len(b) for b in balls)

    def search(uncovered: frozenset, used: int):
        nonlocal best
        if not uncovered:
            best = min(best, used)
            return
        if used + math.ceil(len(uncovered) / maxball) >= best:
            return
        target = min(uncovered, key=lambda x: sum(x in b for b in balls))
        for i in range(m):
            if target in balls[i]:
                search(uncovered - balls[i], used + 1)

    search(universe, 0)
    return best


def _extremal_relation(S, F, p, eps):
    """The checks every extremal count shares, then the (separated, near)
    adjacency of the points of S over the window F."""
    points = list(S.vectors() if isinstance(S, DualSolutionSet) else S)
    if len(points) > EXTREMAL_SCALE_LIMIT:
        raise ScaleExceeded(f"{len(points)} points exceed the brute-force scale")
    if not points:
        raise DomainError("empty point set")
    elems = list(F.elements if isinstance(F, FolnerWindow) else F)
    return _pairwise_relation(points, elems, p, eps)


def extremal_count(S, F, p, eps, mode: str) -> int:
    """Maximal separated or minimal spanning cardinality, both exact.

    Separated: maximum clique of the graph with edges d > eps (strict),
    branch-and-bound seeded by a greedy clique.  Spanning: exact minimum
    set cover by the closed eps-balls around the points.  Instances above
    4096 points are rejected, not approximated.
    """
    sep, near = _extremal_relation(S, F, p, eps)
    if mode == "separated":
        return _max_clique(sep)[0]
    if mode == "spanning":
        return _min_cover([frozenset(j for j, x in enumerate(row) if x) for row in near])
    raise DomainError("mode must be 'separated' or 'spanning'")


def separated_count_with_greedy(S, F, p, eps) -> tuple[int, int]:
    """(exact separated count, greedy lower bound) for reporting."""
    sep, _ = _extremal_relation(S, F, p, eps)
    return _max_clique(sep)


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
    (asserted exactly); the explicit dual enumeration is attached whenever
    the count fits under enumeration_limit.
    """
    if isinstance(group, FolnerWindow):
        window = group
    else:
        if not group.is_finite:
            raise DomainError("entropy_finite_group needs a finite group")
        window = groups.folner_window(group, 1)
    M = compress(f, window).to_int_rows()
    order = quotient_order(snf(M, transforms=False))
    if order is math.inf:
        raise SingularCompression("singular compression: entropy is infinite")
    adet = abs(det_exact(M))
    if adet != order:
        raise AssertionError("Smith order disagrees with the exact determinant")
    count = None
    enumerated = False
    if order <= enumeration_limit:
        dual = solve_dual_finite(f, window, materialize_limit=0, hard_limit=max(order, 1))
        count = dual.count
        enumerated = True
        if count != order:
            raise AssertionError("dual enumeration disagrees with the Smith order")
    value = math.log(order) / len(window)
    return EntropyEstimate(value, len(window), order, adet, count, enumerated)


# ---------------------------------------------------------------------------
# lattice points in euclidean balls

def count_lattice_ball(k: int, R) -> int:
    """Exact number of integer vectors in dimension k with l2 norm <= R."""
    if not (isinstance(k, int) and 1 <= k <= BALL_DIM_LIMIT):
        raise ScaleExceeded(f"dimension must be an integer in [1, {BALL_DIM_LIMIT}]")
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

    def to_csv(self) -> str:
        lines = ["tile_index,center_coordinates"]
        for ti, c in self.placements:
            lines.append(f"{ti},{' '.join(str(x) for x in c.coords)}")
        return "\n".join(lines) + "\n"


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
            raise DomainError("tiles must live over the window's group")
    order = sorted(range(len(tiles)), key=lambda i: (-len(tiles[i]), i))
    covered = np.zeros(len(F), dtype=bool)
    placements = []
    for ti in order:
        W = tiles[ti]
        # column j holds the positions in F of W.F[j]
        pos = groups.window_translates(F, [w.coords for w in W.elements])
        for j in np.flatnonzero((pos >= 0).all(axis=0)).tolist():
            translate = pos[:, j]
            overlap = int(np.count_nonzero(covered[translate]))
            if mode == "pairwise-disjoint":
                if overlap:
                    continue
            elif overlap >= eps * len(W):
                continue
            covered[translate] = True
            placements.append((ti, F.elements[j]))
    coverage = Fraction(int(np.count_nonzero(covered)), len(F))
    return Tiling(F, tuple(tiles), tuple(placements), coverage, mode, eps)


def verify_tiling(t: Tiling) -> None:
    """Independent re-check of the tiling postconditions.

    Raises AssertionError on violation: containment of every translate,
    the disjointness claim of the mode (zero overlap, or overlap below
    eps times the tile size in placement order), and the coverage ratio.
    """
    mul = groups.coordinate_multiplier(t.window.descriptor)
    fcoords = {g.coords for g in t.window.elements}
    covered: set = set()
    for ti, c in t.placements:
        translate = [mul(w.coords, c.coords) for w in t.tiles[ti].elements]
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
