"""Boundary ratios, quasitilings and perturbed compressions against the
element-wise loops they replaced.

The oracles below translate coordinate tuples one at a time, as the library
did before these three operations moved onto groups.window_translates; they
are kept as the reference, and every result must match them exactly.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import grdet as G
from grdet import det, dynamics, groups, ring
from grdet.errors import DomainError

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)
H3 = G.heisenberg3()
C46 = G.cyclic_product([4, 6])
F2 = G.free_group_rank2()
DINF = G.parse_descriptor("Dinf")   # the test-only family of conftest.py


# ---------------------------------------------------------------------- oracles

def oracle_boundary_ratio(window, K):
    mul = groups.coordinate_multiplier(window.descriptor)
    fset = {g.coords for g in window.elements}
    kf = {mul(k.coords, c) for k in K for c in fset}
    sym = len(kf - fset) + len(fset - kf)
    return Fraction(sym, len(window))


def oracle_quasitile(F, tiles, eps, mode):
    tiles = list(tiles)
    order = sorted(range(len(tiles)), key=lambda i: (-len(tiles[i]), i))
    mul = groups.coordinate_multiplier(F.descriptor)
    fcoords = {g.coords for g in F.elements}
    covered = set()
    placements = []
    for ti in order:
        W = tiles[ti]
        wcoords = [w.coords for w in W.elements]
        wlen = len(W)
        for c in F.elements:
            cc = c.coords
            translate = []
            for w in wcoords:
                t = mul(w, cc)
                if t not in fcoords:
                    translate = None
                    break
                translate.append(t)
            if translate is None:
                continue
            overlap = sum(1 for t in translate if t in covered)
            if mode == "pairwise-disjoint":
                if overlap:
                    continue
            elif overlap >= eps * wlen:
                continue
            covered.update(translate)
            placements.append((ti, c))
    coverage = Fraction(len(covered), len(F))
    return dynamics.Tiling(F, tuple(tiles), tuple(placements), coverage, mode, eps)


def oracle_perturbed_compression(f, F, tiles, epsilon):
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

    tiling = oracle_quasitile(F, tiles, min(epsilon / 2, 0.499), "pairwise-disjoint")

    shape_data = {}
    for t_idx in sorted({ti for ti, _ in tiling.placements}):
        W = tiles[t_idx]
        inner = interiors[t_idx]
        inner_set = set(inner)
        comp = [g for g in W.elements if g not in inner_set]
        if comp:
            A = [[0] * len(inner) for _ in range(len(W))]
            for j, g in enumerate(inner):
                for k, v in f.terms.items():
                    tgt = groups.GroupElement(f.descriptor, mul(k.coords, g.coords))
                    A[W.index[tgt]][j] = int(v)
            # the kernel of A's transpose: V^-1's columns past the Smith rank
            res = det.snf([list(col) for col in zip(*A)])
            rank = sum(1 for d in res.divisors if d)
            null_basis = list(zip(*res.v_inverse))[rank:]
            if len(null_basis) != len(comp):
                raise DomainError(
                    f"tile {t_idx}: f is rank-deficient on the tile interior; "
                    "is f invertible?"
                )
            vectors, nrm, inv_nrm = det._near_orthonormal_rational_basis(null_basis)
            mj = 1
            for v in vectors:
                for x in v:
                    mj = mj * x.denominator // math.gcd(mj, x.denominator)
        else:
            vectors, nrm, inv_nrm, mj = [], 1.0, 1.0, 1
        shape_data[t_idx] = (inner, comp, vectors, det.TileTransfer(t_idx, mj, nrm, inv_nrm))

    n = len(F)
    S = [[Fraction(0)] * n for _ in range(n)]
    fF = [[0] * n for _ in range(n)]
    for h in F.elements:
        for k, v in f.terms.items():
            tgt = groups.GroupElement(f.descriptor, mul(k.coords, h.coords))
            if tgt in F.index:
                fF[F.index[tgt]][F.index[h]] = int(v)

    covered_cols = set()
    for t_idx, center in tiling.placements:
        inner, comp, vectors, _ = shape_data[t_idx]
        W = tiles[t_idx]
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
    return {"matrix": tuple(tuple(row) for row in S), "tiling": tiling,
            "rank_defect": rank_defect, "denominator": denominator,
            "transfers": tuple(transfers)}


# ---------------------------------------------------------------------- random inputs

def region(desc):
    """A few dozen elements of desc to draw windows from."""
    if desc.family == groups.LATTICE:
        coords = itertools.product(range(-6, 7), repeat=desc.params[0])
    elif desc.family == groups.HEISENBERG:
        coords = itertools.product(range(-1, 2), range(-1, 2), range(-2, 3))
    elif desc.family == groups.CYCLIC:
        coords = itertools.product(*(range(m) for m in desc.params))
    elif desc == DINF:
        coords = itertools.product(range(-6, 7), range(2))
    else:
        coords = (w for k in range(4) for w in itertools.product((1, -1, 2, -2), repeat=k))
    return sorted({G.GroupElement(desc, c) for c in coords}, key=lambda g: g.sort_key())


def random_window(rng, desc, size):
    pool = region(desc)
    return G.FolnerWindow(desc, rng.sample(pool, min(size, len(pool))))


def random_K(rng, desc, with_identity):
    e = groups.identity(desc)
    pool = [g for g in region(desc) if g != e and max(map(abs, g.coords), default=0) <= 2]
    K = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
    if with_identity:
        K.insert(rng.randrange(len(K) + 1), e)
    return K


def box_window(desc, corner, sides):
    ranges = [range(c, c + s) for c, s in zip(corner, sides)]
    return G.window_from_coords(desc, itertools.product(*ranges))


# ---------------------------------------------------------------------- boundary ratios

@pytest.mark.parametrize("desc", [Z1, Z2, H3, C46, F2, DINF], ids=str)
@pytest.mark.parametrize("with_identity", [True, False])
def test_boundary_ratio_matches_set_oracle(desc, with_identity):
    rng = random.Random(f"{desc}-{with_identity}")
    for _ in range(25):
        F = random_window(rng, desc, rng.randint(1, 24))
        K = random_K(rng, desc, with_identity)
        assert G.boundary_ratio(F, K) == oracle_boundary_ratio(F, K)


@pytest.mark.parametrize("desc", [Z1, Z2, H3, DINF], ids=str)
@pytest.mark.parametrize("with_identity", [True, False])
def test_box_boundary_ratio_matches_set_oracle(desc, with_identity):
    rng = random.Random(f"box-{desc}-{with_identity}")
    for n in (1, 2, 3):
        F = G.folner_window(desc, n)
        K = random_K(rng, desc, with_identity)
        expected = oracle_boundary_ratio(F, K)
        assert G.boundary_ratio(F, K) == expected
        # the same box in another order: its rows still fill their key box
        shuffle = random.Random(f"shuffle-{desc}-{n}")
        shuffled = G.window_from_coords(desc, shuffle.sample(F.coords, len(F)))
        assert G.boundary_ratio(shuffled, K) == expected


@pytest.mark.parametrize("desc", [Z2, G.integer_lattice(3), H3], ids=str)
def test_wide_sparse_windows_match_oracles(desc, monkeypatch):
    # clusters far apart: their coordinate box holds far more than 2^62
    # keys, so the window, its translates and their outside parts are keyed
    # by the ranks of their values (H3's x and y stay below 2^21, so that
    # x y does not leave int64)
    rng = random.Random(f"wide-{desc}")
    scales = [2 ** 20, 2 ** 20, 2 ** 40] if desc == H3 else [2 ** 40] * desc.params[0]
    for _ in range(6):
        centres = [tuple(rng.randint(-3, 3) * a for a in scales) for _ in range(3)]
        offsets = [tuple(rng.randint(-2, 2) for _ in c) for c in centres for _ in range(8)]
        pts = {tuple(a + b for a, b in zip(rng.choice(centres), o)) for o in offsets}
        F = G.window_from_coords(desc, sorted(pts))
        K = random_K(rng, desc, True)
        assert G.boundary_ratio(F, K) == oracle_boundary_ratio(F, K)
        S = [k.coords for k in K] + [g.coords for g in rng.sample(F.elements, 2)]
        monkeypatch.setattr(groups, "_SMALL_TRANSLATES", 0)
        arrays = groups.window_translates(F, S)
        assert F.key_index.values is not None
        monkeypatch.setattr(groups, "_SMALL_TRANSLATES", 10 ** 9)
        assert np.array_equal(arrays, groups.window_translates(F, S))


# ---------------------------------------------------------------------- quasitiling

QUASITILE_CASES = [
    (Z1, 40, [(5,), (3,), (2,)]),
    (Z1, 25, [(7,), (4,)]),
    (Z2, 8, [(3, 3), (2, 1), (1, 2)]),
    (Z2, 6, [(4, 2), (2, 2)]),
    (H3, 2, [(2, 2, 3), (1, 2, 2)]),
    (C46, 1, [(2, 3), (1, 2)]),
    (DINF, 6, [(3, 2), (2, 1), (1, 2)]),
]


@pytest.mark.parametrize("mode", ["pairwise-disjoint", "epsilon-disjoint"])
@pytest.mark.parametrize("case", range(len(QUASITILE_CASES)))
def test_quasitile_matches_elementwise_oracle(mode, case):
    desc, n, sides = QUASITILE_CASES[case]
    rng = random.Random(f"tile-{case}-{mode}")
    if desc.family == groups.LATTICE:
        d = desc.params[0]
        F = box_window(desc, [0] * d, [n] * d)
    else:
        F = G.folner_window(desc, n)
    for trial in range(4):
        tiles = []
        for s in sides[: rng.randint(1, len(sides))]:
            corner = [rng.randint(-1, 1) for _ in s]
            tiles.append(box_window(desc, corner, s))
        if trial % 2:
            # an irregular tile: a random subset of the window's first points
            tiles.append(G.FolnerWindow(desc, rng.sample(F.elements[:12], rng.randint(1, 4))))
        eps = rng.choice([0.05, 0.1, 0.25, 0.45])
        got = G.quasitile(F, tiles, eps, mode=mode)
        assert got == oracle_quasitile(F, tiles, eps, mode)
        G.verify_tiling(got)


# ---------------------------------------------------------------------- perturbed compressions

def random_symbol(rng, desc):
    d = desc.params[0]
    terms = {(0,) * d: rng.randint(4, 7)}
    for _ in range(rng.randint(1, 3)):
        g = tuple(rng.randint(-1, 1) for _ in range(d))
        if any(g):
            terms[g] = rng.choice([-1, 1, 2])
    return G.ring_element(desc, terms)


@pytest.mark.parametrize("desc", [Z1, Z2], ids=str)
def test_perturbed_compression_matches_elementwise_oracle(desc):
    rng = random.Random(f"perturb-{desc}")
    d = desc.params[0]
    compared = 0
    for _ in range(10):
        f = random_symbol(rng, desc)
        if d == 1:
            F = box_window(desc, [rng.randint(-3, 3)], [rng.randint(10, 24)])
            tiles = [box_window(desc, [rng.randint(-2, 2)], [k]) for k in rng.sample([4, 5, 6, 7], 2)]
        else:
            F = box_window(desc, [rng.randint(-1, 1)] * 2, [rng.randint(6, 9)] * 2)
            tiles = [box_window(desc, [rng.randint(-1, 1)] * 2, [k, k]) for k in rng.sample([3, 4, 5], 2)]
        eps = rng.choice([1.2, 1.5, 1.9])
        if rng.random() < 0.5:
            # windows in no coordinate order: translates are not sorted
            F, *tiles = [G.FolnerWindow(desc, rng.sample(W.elements, len(W))) for W in (F, *tiles)]
        try:
            expected = oracle_perturbed_compression(f, F, tiles, eps)
        except DomainError as exc:
            with pytest.raises(DomainError, match=str(exc).split(":")[0]):
                G.build_perturbed_compression(f, F, tiles, eps)
            continue
        pc = G.build_perturbed_compression(f, F, tiles, eps)
        # the oracle ranks the dense |F| x |F| difference, pc its replaced columns
        for name, value in expected.items():
            assert getattr(pc, name) == value, name
        assert pc.compression.window == F
        compared += 1
    assert compared >= 5
