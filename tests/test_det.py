import functools
import hashlib
import math
import operator
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import grdet as G
from grdet import det
from grdet.det import TableRow, det_exact
from grdet.errors import DescriptorMismatch, DomainError

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)


def zpoly(mapping):
    return G.ring_element(Z1, {(k,): v for k, v in mapping.items()})


def window_range(n):
    return G.window_from_coords(Z1, [(i,) for i in range(n)])


F3 = zpoly({0: 3, 1: 1, -1: 1})
# independent oracle for the Mahler value of 3 + u + u^-1: the quadratic
# formula on z^2 + 3z + 1 keeps the root (3 + sqrt 5)/2 outside the circle
MAHLER_3UU = math.log((3 + math.sqrt(5)) / 2)


# ---------------------------------------------------------------------- logabsdet

def test_logabsdet_examples():
    assert G.logabsdet(np.eye(5)) == 0.0
    assert G.logabsdet(np.diag([2.0, 3.0])) == pytest.approx(math.log(6), rel=1e-14)
    # tridiagonal(3;1) size 3: dets follow d_k = 3 d_{k-1} - d_{k-2} = 3, 8, 21
    M = G.compress(F3, window_range(3))
    assert G.logabsdet(M) == pytest.approx(math.log(21), rel=1e-14)
    assert G.logabsdet(np.zeros((3, 3))) == -math.inf
    # not square; without the shape check a length-1 vector would pass as a
    # 1 x 1 sparse matrix
    for bad in (np.ones((2, 3)), np.array([5.0]), [1.0, 2.0], np.array(3.0)):
        with pytest.raises(DomainError, match="square"):
            G.logabsdet(bad)


def test_logabsdet_dense_sparse_agree():
    # the same tridiagonal as a dense array and as a sparse matrix
    M = G.compress(F3, window_range(600))
    dense = G.logabsdet(M.to_float())
    sparse = G.logabsdet(M.to_csc())
    assert sparse == pytest.approx(dense, rel=1e-12)


# ---------------------------------------------------------------------- snf

def test_snf_examples():
    assert G.snf([[2, 0], [0, 3]]).divisors == (1, 6)
    assert G.snf([[1, 0], [0, 1]]).divisors == (1, 1)
    assert G.snf([[2, 1], [0, 3]]).divisors == (1, 6)
    M = np.array([[2, 1], [0, 3]], dtype=np.int64)   # numpy ints are read as ints
    assert G.snf(M).divisors == (1, 6) and det_exact(M) == 6


def test_quotient_order_examples():
    assert G.quotient_order(G.snf([[2, 0], [0, 3]])) == 6
    assert G.quotient_order(G.snf([[1, 0], [0, 1]])) == 1
    assert G.quotient_order(G.snf([[1, 0], [0, 0]])) is math.inf
    # Z^3 / M Z^2 keeps a free summand Z: the cokernel is infinite
    assert G.quotient_order(G.snf([[1, 0], [0, 1], [0, 0]])) is math.inf
    # Z^2 / M Z^3 = Z/2
    assert G.quotient_order(G.snf([[1, 0, 0], [0, 2, 4]])) == 2


@pytest.mark.parametrize("entry", [1.5, 2.0, np.float64(3.0), Fraction(7, 2), Fraction(2)])
def test_snf_and_det_exact_refuse_non_integer_entries(entry):
    M = [[entry, 0], [0, 1]]
    with pytest.raises(DomainError, match="snf"):
        G.snf(M)
    with pytest.raises(DomainError, match="snf"):
        G.snf(M, transforms=False)
    with pytest.raises(DomainError, match="det_exact"):
        det_exact(M)


# ---------------------------------------------------------------------- det_exact

# The whole-matrix fraction-free Bareiss elimination det_exact ran before its
# sparse unit-pivot phase, kept as an independent oracle for the signed
# determinant.
def oracle_det(M):
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
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


def _symbol_compression(rng, moduli):
    """The compression of a random integer symbol over the whole cyclic product."""
    desc = G.cyclic_product(moduli)
    terms = {tuple(0 for _ in moduli): rng.randint(-8, 8)}
    for _ in range(rng.randint(1, 5)):
        g = tuple(rng.randrange(m) for m in moduli)
        terms[g] = terms.get(g, 0) + rng.choice([-2, -1, 1, 1, 2, 3])
    return G.compress(G.ring_element(desc, terms), G.folner_window(desc, 1)).to_int_rows()


@pytest.mark.parametrize("m", range(5, 13))
def test_det_exact_matches_the_oracle_on_group_compressions(m):
    rng = random.Random(5100 + m)
    cases = [family_compression(m), _symbol_compression(rng, [m]),
             _symbol_compression(rng, [2, m]), _symbol_compression(rng, [m, m])]
    for M in cases:
        assert det_exact(M) == oracle_det(M)


@pytest.mark.parametrize("entries", [range(-9, 10), (0, 2, -2, 3, -3)], ids=["dense", "unit-free"])
def test_det_exact_matches_the_oracle_on_random_matrices(entries):
    rng = random.Random(5200)
    signs = set()
    for _ in range(80):
        n = rng.randint(1, 16)
        M = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        d = det_exact(M)
        assert d == oracle_det(M)
        signs.add((d > 0) - (d < 0))
    assert signs >= {-1, 1}


def test_det_exact_is_zero_on_singular_matrices():
    rng = random.Random(5400)
    for _ in range(40):
        n = rng.randint(2, 14)
        M = [[rng.choice([0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(n)]
        repeated = [list(r) for r in M]
        i, j = rng.sample(range(n), 2)
        repeated[i] = list(repeated[j])
        zero_col = [list(r) for r in M]
        c = rng.randrange(n)
        for row in zero_col:
            row[c] = 0
        r = rng.randint(0, n - 1)   # rank at most r < n
        X = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        Y = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] if r else [0] * n
                   for row in X]
        for S in (repeated, zero_col, product):
            assert det_exact(S) == oracle_det(S) == 0


def test_det_exact_of_signed_permutation_matrices():
    rng = random.Random(5500)
    for _ in range(40):
        n = rng.randint(1, 12)
        perm = rng.sample(range(n), n)
        signs = [rng.choice([1, -1]) for _ in range(n)]
        M = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        expected = (-1) ** inversions * math.prod(signs)
        assert det_exact(M) == oracle_det(M) == expected


def test_det_exact_small_and_numpy_matrices():
    assert det_exact([]) == oracle_det([]) == 1
    assert det_exact(np.zeros((0, 0), dtype=np.int64)) == 1
    for x in (-7, -1, 0, 1, 2):
        assert det_exact([[x]]) == x
        assert det_exact(np.array([[x]], dtype=np.int64)) == x
    rng = random.Random(5600)
    for _ in range(20):
        n = rng.randint(1, 10)
        M = np.array([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        assert det_exact(M) == oracle_det(M.tolist())
    M = np.array(family_compression(6), dtype=np.int64)
    assert det_exact(M) == oracle_det(family_compression(6))


def test_det_exact_signs_under_negation_and_row_swaps():
    rng = random.Random(5700)
    cases = [family_compression(m) for m in (5, 6, 7)]
    cases += [[[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
              for n in rng.choices(range(2, 15), k=30)]
    for M in cases:
        n = len(M)
        d = det_exact(M)
        assert det_exact([[-x for x in row] for row in M]) == (-1) ** n * d
        i, j = rng.sample(range(n), 2)
        swapped = [list(r) for r in M]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_exact(swapped) == -d


def _check_snf_contract(M, res=None):
    res = G.snf(M) if res is None else res
    d = res.divisors
    for a, b in zip(d, d[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    U = np.array(res.u, dtype=object)
    V = np.array(res.v, dtype=object)
    D = np.zeros((len(M), len(M[0])), dtype=object)
    for i, di in enumerate(d):
        D[i, i] = di
    assert np.array_equal(U @ D @ V, np.array(M, dtype=object))
    W = np.array(res.v_inverse, dtype=object)
    # V V^-1 = I over the integers makes |det V| = 1
    assert np.array_equal(V @ W, np.eye(len(M[0]), dtype=object))
    if len(M) == len(M[0]) and all(d):
        # then |det U| = 1 is |det M| = prod(d)
        assert abs(det_exact(M)) == math.prod(d)
    else:
        assert abs(det_exact([list(r) for r in res.u])) == 1
    return res


def test_snf_randomized_against_exact_determinant():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(1, 8)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        res = _check_snf_contract(M)
        prod = 1
        for di in res.divisors:
            prod *= di
        assert prod == abs(det_exact(M))


def test_snf_rectangular():
    res = _check_snf_contract([[2, 4, 6], [4, 8, 12]])
    assert res.divisors == (2, 0)


# coset-enumeration oracle: every coset of M Z^3 has a representative in
# [0, |det|)^3 because |det| Z^3 lies inside M Z^3, and x ~ y exactly when
# adj(M) (x - y) = 0 mod |det|
def _adjugate3(M):
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


def coset_count_oracle(M):
    dval = abs(det_exact(M))
    adj = np.array(_adjugate3(M), dtype=np.int64)
    ax = np.arange(dval, dtype=np.int64)
    X = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    labels = (X @ adj.T) % dval if dval > 1 else np.zeros((1, 3), dtype=np.int64)
    return len(np.unique(labels, axis=0))


def test_quotient_order_matches_coset_enumeration():
    rng = random.Random(777)
    done = 0
    while done < 25:
        M = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if det_exact(M) == 0:
            continue
        assert G.quotient_order(G.snf(M)) == coset_count_oracle(M)
        done += 1


# The elimination snf ran before its Hermite phase, kept as an independent
# oracle for the divisors: least-magnitude pivots (first in row-major order),
# each followed by a repair until the pivot divides the trailing block.
def oracle_divisors(M):
    A = [[int(x) for x in row] for row in M]
    m, n = len(A), len(A[0])
    out = []
    for s in range(min(m, n)):
        while True:
            block = [(abs(A[i][j]), i, j) for i in range(s, m) for j in range(s, n) if A[i][j]]
            if not block:
                return tuple(out + [0] * (min(m, n) - s))
            _, i, j = min(block)
            A[s], A[i] = A[i], A[s]
            for row in A:
                row[s], row[j] = row[j], row[s]
            if A[s][s] < 0:
                A[s] = [-x for x in A[s]]
            p = A[s][s]
            for i in range(s + 1, m):
                q = A[i][s] // p
                A[i] = [x - q * y for x, y in zip(A[i], A[s])]
            for j in range(s + 1, n):
                q = A[s][j] // p
                for row in A:
                    row[j] -= q * row[s]
            if any(A[i][s] for i in range(s + 1, m)) or any(A[s][s + 1:]):
                continue
            bad = next((i for i in range(s + 1, m)
                        if any(x % p for x in A[i][s + 1:])), None)
            if bad is None:
                break
            A[s] = [x + y for x, y in zip(A[s], A[bad])]
        out.append(A[s][s])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def family_compression(m):
    """6 + x - x^-1 + y - y^-1 + xy over (Z/m)^2, compressed over the group."""
    terms = {}
    for (a, b), v in (((0, 0), 6), ((1, 0), 1), ((-1, 0), -1), ((0, 1), 1),
                      ((0, -1), -1), ((1, 1), 1)):
        key = (a % m, b % m)
        terms[key] = terms.get(key, 0) + v
    desc = G.cyclic_product([m, m])
    f = G.ring_element(desc, terms)
    return tuple(map(tuple, G.compress(f, G.folner_window(desc, 1)).to_int_rows()))


@functools.lru_cache(maxsize=None)
def family_snf(m):
    return G.snf(family_compression(m))


@pytest.mark.parametrize("m", range(2, 13))
def test_snf_matches_the_elimination_oracle_on_group_compressions(m):
    M = family_compression(m)
    res = _check_snf_contract(M, family_snf(m))
    assert res.divisors == oracle_divisors(M) == G.snf(M, False).divisors


def test_snf_transforms_stay_bounded():
    # pivoting alone let V reach 8468 bits here, where |det| has 384
    res = family_snf(12)
    bits = max(abs(x).bit_length() for X in (res.u, res.v, res.v_inverse)
               for row in X for x in row)
    assert bits <= 3000


def _nonunit_matrix(rng, n, units):
    """n x n, ``units`` rows of small entries and the rest multiples of 2, 3,
    4 or 6, so that a block without +-1 is left once the units are used."""
    rows = []
    for i in range(n):
        row = [rng.randint(-3, 3) for _ in range(n)]
        if i >= units:
            row = [x * rng.choice([2, 3, 4, 6]) for x in row]
        rows.append(row)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("min_block", [det._HERMITE_MIN_BLOCK, 1])
def test_snf_matches_the_elimination_oracle_on_random_matrices(monkeypatch, min_block):
    monkeypatch.setattr(det, "_HERMITE_MIN_BLOCK", min_block)
    rng = random.Random(1200 + min_block)
    done = 0
    while done < 30:
        n = rng.randint(1, 30) if min_block == 1 else rng.randint(12, 30)
        M = _nonunit_matrix(rng, n, rng.randint(0, max(0, n - 12)))
        if det_exact(M) == 0:
            continue
        assert _check_snf_contract(M).divisors == oracle_divisors(M) == G.snf(M, False).divisors
        done += 1


@pytest.mark.parametrize("min_block", [det._HERMITE_MIN_BLOCK, 1])
def test_snf_matches_the_elimination_oracle_on_singular_and_rectangular(monkeypatch, min_block):
    monkeypatch.setattr(det, "_HERMITE_MIN_BLOCK", min_block)
    rng = random.Random(1300 + min_block)
    for _ in range(30):
        m, n, r = rng.randint(1, 14), rng.randint(1, 14), rng.randint(0, 6)
        if m == n:   # rank at most r < n
            r = min(r, n - 1)
        X = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        Y = [[rng.randint(-3, 3) * rng.choice([1, 2, 6]) for _ in range(n)] for _ in range(r)]
        M = [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] if r else [0] * n
             for row in X]
        assert _check_snf_contract(M).divisors == oracle_divisors(M)


def hermite_cofactor(B, H):
    """Y with Y H = B for lower-triangular H, or None if Y is not integral."""
    k = len(H)
    Y = []
    for brow in B:
        y = [0] * k
        for b in range(k - 1, -1, -1):
            y[b], rem = divmod(brow[b] - sum(y[a] * H[a][b] for a in range(b + 1, k)), H[b][b])
            if rem:
                return None
        Y.append(y)
    return Y


def _check_hermite(B):
    H = det._hermite_mod(B, abs(det_exact(B)))
    for i, row in enumerate(H):
        assert row[i] > 0 and not any(row[i + 1:])
        assert all(0 <= row[j] < H[j][j] for j in range(i))
    Y = hermite_cofactor(B, H)
    assert Y is not None and abs(det_exact(Y)) == 1
    return H


def test_hermite_mod_against_its_definition():
    rng = random.Random(2408)
    done = 0
    while done < 200:
        n = rng.randint(1, 24)
        B = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(0, n)):
            B[i] = [x * rng.choice([2, 3, 4, 6]) for x in B[i]]
        if det_exact(B) == 0:
            continue
        _check_hermite(B)
        done += 1


def test_snf_takes_both_column_paths(monkeypatch):
    # after a non-unit pivot's row operations its column is either clear below
    # it (column operations change the pivot row only) or dirty (they walk
    # every row from the pivot's on)
    walks = []
    addmul_col = det._SnfState.addmul_col

    def spy(self, i, j, q, rows):
        walks.append(len(rows) > 1)
        return addmul_col(self, i, j, q, rows)

    monkeypatch.setattr(det._SnfState, "addmul_col", spy)
    dirty = [[[2, 3], [3, 5]],                         # pivot 2 leaves 1 below it
             [[2, 3, 5], [3, 5, 7]],                   # wide
             [[2, 3], [3, 5], [4, 7]],                 # tall
             [[2, 3, 5], [3, 5, 8], [5, 8, 13]]]       # singular: row 2 = row 0 + row 1
    clean = [[[2, 3], [4, 7]],                         # pivot 2 clears its column
             [[2, 3, 5], [4, 7, 9]],
             [[2, 3], [4, 7], [6, 9]],
             [[2, 3], [4, 6]]]                         # singular
    for cases, full in ((dirty, True), (clean, False)):
        for M in cases:
            walks.clear()
            _check_snf_contract(M)
            assert (full in walks) and (full or not any(walks)), M
    rng = random.Random(1400)
    seen = set()
    for _ in range(60):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        M = [[rng.choice([0, 2, -2, 3, -3, 4, 5, 6]) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:   # a repeated row makes it singular
            M.append(list(M[0]))
        walks.clear()
        assert _check_snf_contract(M).divisors == oracle_divisors(M)
        seen.update(walks)
    assert seen == {True, False}


def test_hermite_mod_reduces_found_rows_exactly(monkeypatch):
    # Row 1 is found first (h_11 = 2, |det| 12 -> 6), then row 0 (h_00 = 6,
    # 6 -> 1); reducing row 1 by row 0 modulo the shrunken determinant 1
    # would zero h_10 = 3 and leave diag(6, 2), which spans another lattice:
    # its Smith form would give divisors (2, 6) instead of (1, 12).
    B = [[-3, 2], [-12, 4]]
    assert _check_hermite(B) == [[6, 0], [3, 2]]
    monkeypatch.setattr(det, "_HERMITE_MIN_BLOCK", 1)
    assert _check_snf_contract(B).divisors == (1, 12)


def _pinned_random_matrices():
    """300 seeded inputs of up to 20 rows, in turn square, rectangular,
    singular and unit-free (a trailing block without +-1 after the units)."""
    rng = random.Random(2700)
    out = []
    for i in range(300):
        kind = i % 4
        if kind == 0:
            n = rng.randint(1, 20)
            M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        elif kind == 1:
            m, n = rng.sample(range(1, 21), 2)
            M = [[rng.choice([0, 0, 1, -2, 3, -4, 6]) for _ in range(n)] for _ in range(m)]
        elif kind == 2:
            n, r = rng.randint(2, 20), rng.randint(0, 6)
            r = min(r, n - 1)
            X = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
            Y = [[rng.randint(-3, 3) * rng.choice([1, 2, 6]) for _ in range(n)]
                 for _ in range(r)]
            M = [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] if r else [0] * n
                 for row in X]
        else:
            n = rng.randint(1, 20)
            M = _nonunit_matrix(rng, n, rng.randint(0, max(0, n - 12)))
        out.append(M)
    return out


def _demo_04_tile_matrices(monkeypatch):
    """The tile restrictions build_perturbed_compression hands to snf on
    demo 04's instance: 3 + u + u^-1 on 10 points, tiles of 5, epsilon 0.8."""
    seen = []
    snf = det.snf

    def record(M, transforms=True):
        seen.append([list(row) for row in M])
        return snf(M, transforms)

    monkeypatch.setattr(det, "snf", record)
    G.build_perturbed_compression(F3, window_range(10), [window_range(5)], 0.8)
    monkeypatch.setattr(det, "snf", snf)
    assert seen
    return seen


# sha256 over repr((divisors, u, v, v_inverse)) of snf(M, True) and over
# repr(divisors) of snf(M, False), input by input: any change to a divisor or
# to an entry of U, V or V^-1 changes it
SNF_PINS = {
    "family":
        "f045ad57ad1f07c4399b2f86906a2ab2aea5a52446a4f29d9186cce224dbf66f",
    "random-min-block-12":
        "7a1830c567cb4f8619c03d9890612ed776edfbd45c02595ae367e56ee3dab587",
    "random-min-block-1":
        "52c6bfcb926955f8b81289a075b7a5067082d02668d5a8bd5f8744d762bef820",
    "demo-04-tiles":
        "c92a94bf28f24c2c6fbfb05f1e8607884b5c5bcee4e9b1c67aeb5305a2feb792",
}


@pytest.mark.parametrize("case", sorted(SNF_PINS))
def test_snf_transforms_are_pinned(monkeypatch, case):
    if case == "family":
        matrices = [family_compression(m) for m in range(5, 13)]
    elif case == "demo-04-tiles":
        matrices = _demo_04_tile_matrices(monkeypatch)
    else:
        monkeypatch.setattr(det, "_HERMITE_MIN_BLOCK", int(case.rsplit("-", 1)[1]))
        matrices = _pinned_random_matrices()
    h = hashlib.sha256()
    for M in matrices:
        r = G.snf(M, True)
        h.update(repr((r.divisors, r.u, r.v, r.v_inverse)).encode())
        h.update(repr(G.snf(M, False).divisors).encode())
    assert h.hexdigest() == SNF_PINS[case]


# ---------------------------------------------------------------------- finite sections

def test_fk_sections_requires_gate():
    with pytest.raises(DomainError):
        G.fk_finite_sections(F3, [window_range(3)])


def test_fk_sections_examples():
    cert = G.certify_invertible(F3, "positive-gap")
    tab = G.fk_finite_sections(F3, [window_range(3)], certificate=cert)
    assert tab.values()[0] == pytest.approx(math.log(21) / 3, rel=1e-13)

    two = zpoly({0: 2})
    tab2 = G.fk_finite_sections(two, [window_range(2), window_range(5)], assume_invertible=True)
    for v in tab2.values():
        assert v == pytest.approx(math.log(2), rel=1e-13)

    sch = [G.folner_window(Z1, n) for n in (10, 100, 1000)]
    tab3 = G.fk_finite_sections(F3, sch, certificate=cert)
    assert abs(tab3.values()[-1] - MAHLER_3UU) < 1e-2
    # diagnostics: boundary ratios shrink along the schedule
    ratios = [r.boundary_ratio for r in tab3.rows]
    assert ratios[0] > ratios[-1]


def test_fk_sections_singular_window_is_defect_row():
    # u is a unitary, invertible in the algebra, but every compression of it
    # to {0..n} is nilpotent
    shift = zpoly({1: 1})
    tab = G.fk_finite_sections(shift, [window_range(4)], assume_invertible=True)
    assert tab.rows[0].is_defect
    assert tab.values()[0] == -math.inf


def test_fk_sections_adjoint_rows_identical():
    rng = random.Random(88)
    cert_needed = zpoly({0: 9, 1: 2, 2: -1, -1: 3})  # not self-adjoint
    cert = G.certify_invertible(cert_needed, "l1-neumann")
    assert cert.certified
    sch = [G.folner_window(Z1, n) for n in (5, 17, 40)]
    t1 = G.fk_finite_sections(cert_needed, sch, certificate=cert)
    t2 = G.fk_finite_sections(G.adjoint(cert_needed), sch, certificate=cert)
    assert t1.values() == t2.values()


def test_convergence_table_csv():
    tab = G.ConvergenceTable(
        "demo", (TableRow(1, 3, Fraction(1, 3), 0.5, "sections"),
                 TableRow(2, 5, Fraction(1, 5), 0.25, "sections"))
    )
    text = tab.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,window_size,boundary_ratio,value,method"
    assert lines[1].startswith("1,3,0.333333333333,0.5,")
    with pytest.raises(DomainError):
        G.ConvergenceTable("bad", (TableRow(1, 5, Fraction(0), 0.0, "x"),
                                   TableRow(2, 5, Fraction(0), 0.0, "x")))


# ---------------------------------------------------------------------- poly trace

def test_poly_trace_constant_symbol_exact():
    two = zpoly({0: 2})
    val, bound = G.fk_poly_trace(two, (4, 4), 40)
    assert val == math.log(2)
    assert bound == 0.0


def test_poly_trace_matches_mahler_within_bound():
    val, bound = G.fk_poly_trace(F3, (1, 25), 40)
    assert abs(val - MAHLER_3UU) <= bound
    assert bound < 1e-6


def test_poly_trace_reruns_consistent():
    v1, b1 = G.fk_poly_trace(F3, (1, 25), 40)
    v2, b2 = G.fk_poly_trace(F3, (1, 25), 60)
    assert abs(v1 - v2) <= b1 + b2


def test_poly_trace_rejects_bad_interval():
    with pytest.raises(DomainError):
        G.fk_poly_trace(F3, (0, 25), 10)
    with pytest.raises(DomainError):
        G.fk_poly_trace(F3, (9, 4), 10)
    # non-finite ends, one for each path: the a == b shortcut, the complex
    # walk and the exact walk
    complex_f = G.ring_element(Z1, {(0,): 3 + 0j, (1,): 1j})
    for f, interval in ((F3, (math.inf, math.inf)), (complex_f, (1, math.inf)),
                        (F3, (1, math.inf)), (F3, (math.nan, 25)), (F3, (1, math.nan))):
        with pytest.raises(DomainError, match="0 < a <= b < inf"):
            G.fk_poly_trace(f, interval, 10)


@pytest.mark.parametrize("degree", [0, -1, True, 2.5, np.float64(10)])
def test_poly_trace_rejects_bad_degree(degree):
    with pytest.raises(DomainError):
        G.fk_poly_trace(F3, (1, 16), degree)


def test_poly_trace_takes_numpy_degrees():
    assert G.fk_poly_trace(F3, (1, 25), np.int64(10)) == G.fk_poly_trace(F3, (1, 25), 10)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_poly_trace_takes_numpy_float_endpoints(dtype):
    # Fraction refuses these types; the exact route reads them as the
    # float64 values they hold exactly, as the complex route does
    a, b = dtype(0.9), dtype(26)
    assert G.fk_poly_trace(F3, (a, b), 10) == G.fk_poly_trace(F3, (float(a), float(b)), 10)


def test_poly_trace_non_self_adjoint_path():
    f = zpoly({0: 4, 1: 1})  # f* f = 17e + 4u + 4u^-1, spectrum in [9, 25]
    val, bound = G.fk_poly_trace(f, (9, 25), 30)
    # FK determinant of 4e + u is the Mahler measure log 4
    assert abs(val - math.log(4)) <= bound + 1e-12


def test_poly_trace_complex_domain():
    # 3e + i u: f* f has symbol 10 - 6 sin(t), spectrum [4, 16]; the FK
    # determinant is the Mahler measure of the symbol, log 3
    f = G.ring_element(Z1, {(0,): 3 + 0j, (1,): 1j})
    val, bound = G.fk_poly_trace(f, (4, 16), 30)
    assert abs(val - math.log(3)) <= bound + 1e-12


def test_poly_trace_warns_only_when_interval_misses_spectrum():
    # F3* F3 has spectrum [1, 25]; on [3, 25] the traces of the scaled
    # Chebyshev polynomials reach about 1.05 at degree 4
    missing = [
        (F3, (3, 25), 4),
        # the spectrum of f* f reaches below 4: on (4, 16) the value is about
        # -1.1e5, against 1.349 on an enclosing interval
        (G.ring_element(Z1, {(0,): 4 + 0j, (1,): 0.5 + 0.5j, (-1,): 0.5 - 0.5j, (2,): -0.5j}),
         (4, 16), 30),
    ]
    for f, interval, degree in missing:
        with pytest.warns(UserWarning, match="exceed 1"):
            _, bound = G.fk_poly_trace(f, interval, degree)
        assert bound == math.inf
    cert = G.certify_invertible(F3, "positive-gap")
    enclosing = [
        (F3, (1, 25), 40),
        (F3, (1, 25), 60),
        (zpoly({0: 4, 1: 1}), (9, 25), 30),
        (G.ring_element(Z1, {(0,): 3 + 0j, (1,): 1j}), (4, 16), 30),
        (F3, G.poly_trace_interval(cert, F3), 40),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, interval, degree in enclosing:
            G.fk_poly_trace(f, interval, degree)


def test_poly_trace_interval_from_certificate():
    cert = G.certify_invertible(F3, "positive-gap")
    a, b = G.poly_trace_interval(cert, F3)
    assert 0 < a < 1 <= 25 < b + 1e-9
    val, bound = G.fk_poly_trace(F3, (a, b), 40)
    assert abs(val - MAHLER_3UU) <= bound


# ---------------------------------------------------------------------- perturbed compressions

def test_build_perturbed_compression_example():
    F = window_range(10)
    tile = window_range(5)
    pc = G.build_perturbed_compression(F3, F, [tile], 0.8)
    # K_f = {-1,0,1}: tile interior is {1,2,3}, so the defect is at most
    # |F \ F'| = 4 (two placements cover everything)
    assert pc.rank_defect <= 4
    assert pc.denominator >= 1
    for t in pc.transfers:
        assert t.norm <= 2.0 + 1e-9
        assert t.inverse_norm <= 2.0 + 1e-9
    # integrality: M * (every matrix entry) is an integer
    for row in pc.matrix:
        for x in row:
            assert (x * pc.denominator).denominator == 1
    # S is invertible by construction
    assert math.isfinite(G.logabsdet(pc.compression))


def test_build_perturbed_compression_identity_symbol():
    F = window_range(10)
    tile = window_range(5)
    pc = G.build_perturbed_compression(G.identity_element(Z1), F, [tile], 0.8)
    assert math.exp(G.logabsdet(pc.compression)) == pytest.approx(1.0, rel=1e-12)
    assert pc.rank_defect == 0


def test_build_perturbed_compression_interior_violation():
    F = window_range(10)
    thin = window_range(2)  # interior of {0,1} under K={-1,0,1} is empty
    with pytest.raises(DomainError, match="interior"):
        G.build_perturbed_compression(F3, F, [thin], 0.1)


@pytest.mark.parametrize("other", [Z2, G.cyclic_product([5])], ids=str)
def test_build_perturbed_compression_rejects_other_groups(other):
    F = window_range(10)
    foreign = G.folner_window(other, 1)
    with pytest.raises(DescriptorMismatch):
        G.build_perturbed_compression(F3, F, [foreign], 0.8)
    with pytest.raises(DescriptorMismatch):
        G.build_perturbed_compression(F3, F, [window_range(5), foreign], 0.8)
    with pytest.raises(DescriptorMismatch):
        G.build_perturbed_compression(F3, foreign, [window_range(5)], 0.8)


def test_build_perturbed_compression_randomized_z2():
    rng = random.Random(2024)
    f = G.ring_element(Z2, {(0, 0): 5, (1, 0): 1, (0, 1): -1})
    F = G.window_from_coords(Z2, [(i, j) for i in range(6) for j in range(6)])
    tile = G.window_from_coords(Z2, [(i, j) for i in range(4) for j in range(4)])
    pc = G.build_perturbed_compression(f, F, [tile], 1.5)
    interior_size = 4  # {1,2}^2 under the cross kernel
    placed = len(pc.tiling.placements)
    assert pc.rank_defect <= len(F) - placed * interior_size
    for t in pc.transfers:
        assert t.norm <= 2.0 and t.inverse_norm <= 2.0
    for row in pc.matrix:
        for x in row:
            assert (x * pc.denominator).denominator == 1
    assert math.isfinite(G.logabsdet(pc.compression))


def oracle_nullspace(At):
    """Basis of the right null space of the integer matrix At by Fraction
    Gauss-Jordan: one vector per free column, 1 there and 0 at the others."""
    m, n = len(At), len(At[0])
    A = [[Fraction(x) for x in row] for row in At]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                q = A[i][c]
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        if len(pivots) == m:
            break
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -A[i][free]
        basis.append(v)
    return basis


def smith_kernel(At):
    """V^-1's columns past the nonzero divisors of At = U D V."""
    res = G.snf(At)
    return list(zip(*res.v_inverse))[sum(1 for d in res.divisors if d):]


def tile_restriction(f, W):
    """f's columns over the interior {g : K_f g inside W}, read as rows."""
    _, kernel = G.l1_norm_and_kernel(f)
    inner = np.flatnonzero(det._interior(W, [k.coords for k in kernel])).tolist()
    fW = G.compress(f, W).to_int_rows()
    return [[row[j] for row in fW] for j in inner]


def _kernel_inputs():
    rng = random.Random(17)
    for _ in range(6):
        terms = {o: rng.choice((-2, -1, 1, 2)) for o in rng.sample([-2, -1, 1, 2], 3)}
        f = zpoly({0: rng.choice((-1, 1)) * rng.randint(2, 7), **terms})
        yield tile_restriction(f, G.folner_window(Z1, rng.randint(3, 8)))
    cross = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1)]
    for n in (1, 2, 2):
        terms = {o: rng.choice((-2, -1, 1, 2)) for o in rng.sample(cross, 3)}
        f = G.ring_element(Z2, {(0, 0): rng.randint(2, 7), **terms})
        yield tile_restriction(f, G.folner_window(Z2, n))
    for m, n in ((3, 7), (5, 9), (6, 8), (8, 13)):
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        yield A
        # rank-deficient: a combination of two rows, and a zero row
        yield A[:-2] + [[x + 2 * y for x, y in zip(A[0], A[1])], [0] * n]


@pytest.mark.parametrize("At", list(_kernel_inputs()))
def test_smith_kernel_spans_the_gauss_jordan_kernel(At):
    oracle, kernel = oracle_nullspace(At), smith_kernel(At)
    assert len(kernel) == len(oracle)
    for v in kernel:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in At)
    # each oracle vector has a 1 where the others vanish; the coordinates
    # there write any vector of the span in the oracle basis
    at = [next(c for c in range(len(At[0]))
               if all(w[c] == (w is o) for w in oracle)) for o in oracle]
    for v in kernel:
        assert list(v) == [sum(v[c] * o[j] for c, o in zip(at, oracle))
                           for j in range(len(v))]


@pytest.mark.parametrize("sign, denominator", [(1, 8589934592), (-1, 34359738368)])
def test_build_perturbed_compression_keeps_the_benchmark_values(sign, denominator):
    # 3 + x +- x^-1 on the window and tile the benchmark's finite workload builds
    f = zpoly({0: 3, 1: 1, -1: sign})
    pc = G.build_perturbed_compression(f, G.folner_window(Z1, 50), [G.folner_window(Z1, 5)], 0.8)
    assert (pc.rank_defect, pc.denominator) == (20, denominator)


def test_build_perturbed_compression_stays_sparse_at_scale():
    # 2001 points, tile 51: S stays a compression and the rank reads only the
    # replaced columns; dense |F| x |F| rows and differences peaked at 94 MiB
    tracemalloc.start()
    try:
        pc = G.build_perturbed_compression(F3, G.folner_window(Z1, 1000),
                                           [G.folner_window(Z1, 25)], 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert (pc.rank_defect, pc.denominator) == (90, 18014398509481984)


def test_nearly_parallel_smith_kernels_are_reduced_before_rounding():
    # off the units, the Smith transforms leave a kernel basis that floats
    # hold only in part; its pairwise reduction is well conditioned
    f = zpoly({0: -5, 2: 1, -2: 2, -1: 1, 1: 1})
    tile = G.folner_window(Z1, 24)
    At = tile_restriction(f, tile)
    kernel = [list(v) for v in smith_kernel(At)]
    reduced = det._pairwise_reduced(kernel)

    def cond(vs):
        B = np.array(vs, dtype=float).T
        return np.linalg.cond(B / np.linalg.norm(B, axis=0))

    assert cond(kernel) > 1e15 and cond(reduced) < 1e3
    gram = lambda vs: [[sum(map(operator.mul, u, v)) for v in vs] for u in vs]
    assert det_exact(gram(reduced)) == det_exact(gram(kernel))
    for i, u in enumerate(reduced):
        for j, v in enumerate(reduced):
            if i != j:
                assert 2 * abs(sum(map(operator.mul, u, v))) <= sum(x * x for x in u)
    vectors, nrm, inv_nrm = det._near_orthonormal_rational_basis(kernel)
    assert nrm <= 2 and inv_nrm <= 2
    for v in vectors:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in At)
    pc = G.build_perturbed_compression(f, G.folner_window(Z1, 60), [tile], 1.2)
    assert all(t.norm <= 2 and t.inverse_norm <= 2 for t in pc.transfers)
    assert all((x * pc.denominator).denominator == 1 for row in pc.matrix for x in row)


# ---------------------------------------------------------------------- perturbation study

def test_perturbation_study_delta_zero_identical():
    cert = G.certify_invertible(F3, "positive-gap")
    sch = [G.folner_window(Z1, n) for n in (5, 20)]
    a = G.perturbation_study(F3, sch, 0.0, seed=3, certificate=cert)
    b = G.fk_finite_sections(F3, sch, certificate=cert)
    assert a.values() == b.values()


def test_perturbation_study_seed_determinism():
    cert = G.certify_invertible(F3, "positive-gap")
    sch = [G.folner_window(Z1, 50)]
    a = G.perturbation_study(F3, sch, 0.05, seed=11, certificate=cert)
    b = G.perturbation_study(F3, sch, 0.05, seed=11, certificate=cert)
    assert a.values() == b.values()


def test_perturbation_study_boundary_supplies_every_column():
    # 0.02 * 625 = 12 unit columns, all among the first boundary points of
    # the 25 x 25 box, so the seed draws nothing; a support that is not
    # one-sided keeps the compression from being triangular, whose
    # determinant would not depend on which columns are replaced
    f = G.ring_element(Z2, {(0, 0): 6, (1, 0): 1, (-1, 0): 2, (0, 1): -1, (0, -1): 1})
    F = G.folner_window(Z2, 12)
    g = det._canonical_adjoint_rep(f)
    fset, kernel = set(F.coords), [h.coords for h in g.terms]
    boundary = [j for j, (x, y) in enumerate(F.coords)
                if any((x + a, y + b) not in fset for a, b in kernel)]
    assert len(boundary) > 12
    cols = boundary[:12]
    M = G.compress(g, F).to_float()
    M[:, cols] = 0.0
    M[cols, cols] = 1.0
    expected = G.logabsdet(M) / len(F)
    for seed in (0, 5):
        table = G.perturbation_study(f, [F], 0.02, seed=seed, assume_invertible=True)
        assert table.values()[0] == pytest.approx(expected, rel=1e-12)


def test_perturbation_study_rejects_large_delta():
    with pytest.raises(DomainError):
        G.perturbation_study(F3, [window_range(4)], 0.2, assume_invertible=True)
