"""The vectorized coordinate kernel against plain dict loops.

The oracles below are the dict-convolution walks and the compression loop
the kernel replaced, kept verbatim as the reference: exact results must
match them bit for bit, complex ones within 1e-12.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import grdet as G
from grdet import det, groups, ring
from grdet.errors import DomainError, ScaleExceeded

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)
H3 = G.heisenberg3()
C46 = G.cyclic_product([4, 6])
F2 = G.free_group_rank2()


# ---------------------------------------------------------------------- oracles

def trace_moments(f, count):
    """Exact m_j = tr((f* f)^j) for j = 0..count, as ints or Fractions."""
    D, moments = det._integer_trace_moments(f, count)
    if f.domain == ring.INT:
        return moments
    return [Fraction(m, D ** (2 * j)) for j, m in enumerate(moments)]


def oracle_moments(f, count):
    desc = f.descriptor
    mul = groups.coordinate_multiplier(desc)

    def convolve_raw(small, v):
        out = {}
        get = out.get
        for sc, c1 in small:
            for gc, c2 in v.items():
                key = mul(sc, gc)
                out[key] = get(key, 0) + c1 * c2
        return out

    ident = groups.identity(desc).coords
    if ring.is_self_adjoint(f):
        small = [(g.coords, v) for g, v in f.sorted_terms()]
        v = {ident: ring._coerce(1, f.domain)}
        moments = []
        for j in range(count + 1):
            if j:
                v = convolve_raw(small, v)
            moments.append(sum(c * c for c in v.values()))
        return moments

    g = ring.convolve(ring.adjoint(f), f)
    small = [(h.coords, v) for h, v in g.sorted_terms()]
    half = (count + 1) // 2
    moments = [None] * (count + 1)
    prev = None
    cur = {ident: ring._coerce(1, g.domain)}
    for k in range(half + 1):
        if k:
            prev, cur = cur, convolve_raw(small, cur)
        if 2 * k <= count:
            moments[2 * k] = sum(c * c for c in cur.values())
        if k and 2 * k - 1 <= count and moments[2 * k - 1] is None:
            moments[2 * k - 1] = sum(c * cur.get(gc, 0) for gc, c in prev.items())
    return moments


def oracle_chebyshev_float(f, a, b, degree):
    desc = f.descriptor
    mul = groups.coordinate_multiplier(desc)
    g = ring.convolve(ring.adjoint(f), f)
    ident = groups.identity(desc).coords
    s = {h.coords: 2.0 * complex(v) / (b - a) for h, v in g.sorted_terms()}
    s[ident] = s.get(ident, 0.0) - (a + b) / (b - a)
    s_terms = sorted(s.items())

    def conv(v):
        out = {}
        get = out.get
        for sc, c1 in s_terms:
            for gc, c2 in v.items():
                key = mul(sc, gc)
                out[key] = get(key, 0.0) + c1 * c2
        return out

    prev = {ident: 1.0 + 0.0j}
    traces = [1.0]
    cur = dict(s_terms)
    traces.append(complex(cur.get(ident, 0.0)).real)
    for _ in range(2, degree + 1):
        nxt = {k: 2.0 * v for k, v in conv(cur).items()}
        for k, v in prev.items():
            nxt[k] = nxt.get(k, 0.0) - v
        prev, cur = cur, nxt
        traces.append(complex(cur.get(ident, 0.0)).real)
    return traces


def oracle_chebyshev_exact(moments, a, b, degree):
    s, ell = a + b, b - a
    u = [Fraction(-s, ell), Fraction(2, ell)]
    polys = [[Fraction(1)], list(u)]
    for _ in range(2, degree + 1):
        prod = [Fraction(0)] * (len(polys[-1]) + 1)
        for i, ci in enumerate(polys[-1]):
            prod[i] += u[0] * ci
            prod[i + 1] += u[1] * ci
        nxt = [2 * c for c in prod]
        for i, c in enumerate(polys[-2]):
            nxt[i] -= c
        polys.append(nxt)
    return [float(sum(c * moments[j] for j, c in enumerate(polys[k]))) for k in range(degree + 1)]


def oracle_compress(f, F):
    mul = groups.coordinate_multiplier(f.descriptor)
    rows, cols, vals = [], [], []
    terms = [(g.coords, v) for g, v in f.sorted_terms()]
    for j, g in enumerate(F.elements):
        for sc, v in terms:
            i = F.index.get(G.GroupElement(f.descriptor, mul(sc, g.coords)))
            if i is not None:
                rows.append(i)
                cols.append(j)
                vals.append(v)
    return rows, cols, vals


# ---------------------------------------------------------------------- symbols

def el(desc, mapping, domain=None):
    return G.ring_element(desc, mapping, domain)


# (name, symbol, degree): degree 20 everywhere the support stays small
EXACT = [
    ("z1-sa", el(Z1, {(0,): 3, (1,): 1, (-1,): 1}), 20),
    ("z1-nsa", el(Z1, {(0,): 5, (1,): 2, (-3,): -1, (2,): 1}), 20),
    ("z2-sa", el(Z2, {(0, 0): 7, (1, 0): 1, (-1, 0): 1, (0, 1): -1, (0, -1): -1}), 20),
    ("z2-nsa", el(Z2, {(0, 0): 6, (1, 0): 1, (0, -1): -1, (-1, 1): 1, (1, 1): 1}), 20),
    ("h3-sa", el(H3, {(0, 0, 0): 5, (1, 0, 0): 1, (-1, 0, 0): 1, (0, 1, 0): -1, (0, -1, 0): -1}), 20),
    ("h3-nsa", el(H3, {(0, 0, 0): 6, (1, 0, 1): 1, (0, 1, -2): 2}), 20),
    ("c46", el(C46, {(0, 0): 5, (1, 0): 1, (0, 5): -2, (3, 2): 1}), 20),
    ("rational", el(Z2, {(0, 0): Fraction(9, 2), (1, 0): Fraction(2, 3), (0, -2): Fraction(-1, 5)}), 20),
    ("f2-cyclic", el(F2, {(): 4, (1, 2): 1}), 20),
    ("f2-free", el(F2, {(): 5, (1,): 1, (-1,): 1, (2,): 1, (-2,): 1}), 6),
    ("f2-nsa", el(F2, {(): 6, (1, 2): 1, (-2,): -2}), 8),
    # no identity term: the supports of its powers are not nested
    ("z1-sa-no-e", el(Z1, {(1,): 1, (-1,): 1, (2,): 2, (-2,): 2}), 20),
]


@pytest.mark.parametrize("name,f,degree", EXACT, ids=[e[0] for e in EXACT])
def test_moments_match_dict_walk(name, f, degree):
    moments = trace_moments(f, degree)
    expected = oracle_moments(f, degree)
    assert moments == expected
    assert [type(m) for m in moments] == [type(m) for m in expected]


@pytest.mark.parametrize("f, bits", [
    (el(Z1, {(0,): 1_000_003, (1,): 999_983, (-1,): 999_983}), 31),
    (el(H3, {(0, 0, 0): 3_000_017, (1, 0, 0): -7_777_777, (0, -1, 1): 5}), 22),
    (el(Z1, {(0,): Fraction(10**9 + 7, 3), (2,): Fraction(-1, 10**6 + 3)}), 22),
], ids=["z1-self-adjoint", "h3", "z1-rational"])
def test_moments_beyond_int64(monkeypatch, f, bits):
    # coefficients near 10^6 push m_j past 2^62 from j = 2 on, so the walk
    # needs several primes and CRT has to rebuild every bit.  The walked
    # symbol s (F = D f itself, or F* F) caps the primes: with S the sum of
    # min(|c|, 2^30) over s's coefficients, (p - 1) S < 2^53 must hold, which
    # leaves the 31-bit primes for the first and primes below 2^22 for F* F
    seen = []
    walk = det._pair_walk

    def recording_walk(desc, coords, C, depth, odd, P=None, chebyshev=False):
        seen.append((C, P))
        return walk(desc, coords, C, depth, odd, P, chebyshev)

    monkeypatch.setattr(det, "_pair_walk", recording_walk)
    moments = trace_moments(f, 8)
    assert moments == oracle_moments(f, 8)
    assert max(moments) > 2 ** 62
    D = math.lcm(*(Fraction(v).denominator for v in f.terms.values()))
    F = el(f.descriptor, {g.coords: int(v * D) for g, v in f.terms.items()}, ring.INT)
    s = F if ring.is_self_adjoint(F) else ring.convolve(ring.adjoint(F), F)
    S = sum(min(abs(v), 2 ** 30) for v in s.terms.values())
    ((C, P),) = seen
    primes = P[:, 0].tolist()
    assert 2 ** (bits - 2) <= min(primes) and max(primes) < 2 ** bits
    assert all((p - 1) * S < 2 ** 53 for p in primes)
    # the centred residues of s's coefficients stay within that sum
    assert all(int(np.abs(c).sum()) <= S and np.abs(c).max() <= p // 2
               for c, p in zip(C, primes))


def test_crt_primes_are_primes():
    for below in (2 ** 31, 2 ** 21 + 2 ** 19):
        primes = det._crt_primes(64, below)
        assert len(set(primes)) == 64
        assert list(primes) == sorted(primes, reverse=True)
        assert primes[0] < below
        for p in primes:
            assert all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert det._crt_primes(64) == det._crt_primes(64, 2 ** 31)
    assert det._crt_primes(4, 12) == (11, 7, 5, 3)
    with pytest.raises(DomainError):
        det._crt_primes(5, 12)


def test_walk_primes_cover_the_moment_bound():
    # S = 2^46 leaves the 13 primes in (64, 128) of 6 bits each
    coeffs = [2 ** 40] * 2 ** 16
    primes = det._walk_primes(coeffs, 2 ** 50)
    assert max(primes) < 128 and math.prod(primes) > 4 * 2 ** 50
    assert all((p - 1) * 2 ** 46 < 2 ** 53 for p in primes)
    with pytest.raises(DomainError):
        det._walk_primes(coeffs, 2 ** 100)
    assert det._walk_primes([3, -1, -1], 7 ** 20) == det._crt_primes(2)


def test_chebyshev_combination_bit_identical():
    for f in (EXACT[0][1], EXACT[1][1], EXACT[7][1]):
        l1 = float(G.l1_norm(f))
        for a, b in ((0.5, l1 * l1 * 1.05), (Fraction(1, 3), Fraction(int(l1 * l1) + 1))):
            a, b = Fraction(a), Fraction(b)
            expected = oracle_chebyshev_exact(trace_moments(f, 40), a, b, 40)
            assert det._chebyshev_traces_exact(f, a, b, 40) == expected


COMPLEX = [
    el(Z1, {(0,): 4, (1,): 0.5 + 0.5j, (-1,): 0.5 - 0.5j, (2,): -0.5j}),
    el(H3, {(0, 0, 0): 5, (1, 0, 0): 0.5j, (-1, 0, 0): 1 + 0j, (0, 1, 0): -0.5, (0, -1, 0): 0.5 + 1j}),
    el(F2, {(): 5, (1,): 0.5j, (-2,): 1.0}),
]


@pytest.mark.parametrize("f", COMPLEX, ids=["z1", "h3", "f2"])
def test_complex_traces_match_dict_recurrence(f):
    b = float(G.l1_norm(f)) ** 2 * 1.05
    # an odd degree reads the pair sum b_j at the walk's last level
    for degree in {Z1: (30, 31), H3: (8, 9), F2: (6, 7)}[f.descriptor]:
        got = det._chebyshev_traces_float(f, 1.0, b, degree)
        want = oracle_chebyshev_float(f, 1.0, b, degree)
        assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


# ---------------------------------------------------------------------- compressions

WINDOWS = {
    Z1: [G.folner_window(Z1, 5), G.window_from_coords(Z1, [((7 * i) % 17 - 8,) for i in range(12)])],
    Z2: [G.folner_window(Z2, 3), G.window_from_coords(Z2, [(j, i) for i in range(5) for j in range(i + 1)])],
    H3: [G.folner_window(H3, 2),
         G.window_from_coords(H3, [(i, j, k) for i in range(3) for j in range(-2, 1) for k in range(4, -i - 1, -1)])],
    C46: [G.folner_window(C46, 1), G.window_from_coords(C46, [(i, (5 * i) % 6) for i in range(4)])],
    F2: [G.window_from_coords(F2, [(), (1,), (2,), (1, 2), (-1,), (2, 2), (-2, 1)])],
}


@pytest.mark.parametrize("small", [0, 10 ** 9], ids=["arrays", "dict"])
@pytest.mark.parametrize("f", [e[1] for e in EXACT] + COMPLEX,
                         ids=[e[0] for e in EXACT] + ["z1-cplx", "h3-cplx", "f2-cplx"])
def test_compress_triples_match_loop(f, small, monkeypatch):
    # both lookups behind window_translates: arrays, and dicts for small windows
    monkeypatch.setattr(groups, "_SMALL_TRANSLATES", small)
    for F in WINDOWS[f.descriptor]:
        M = G.compress(f, F)
        assert all(a.dtype == np.int64 for a in (M.rows, M.cols, M.term))
        assert M.coeffs == tuple(v for _, v in f.sorted_terms())
        vals = [M.coeffs[t] for t in M.term.tolist()]
        assert (M.rows.tolist(), M.cols.tolist(), vals) == oracle_compress(f, F)


@pytest.mark.parametrize("f", [e[1] for e in EXACT] + COMPLEX,
                         ids=[e[0] for e in EXACT] + ["z1-cplx", "h3-cplx", "f2-cplx"])
def test_sparse_view_is_canonical_and_matches_loop(f):
    # every family: cyclic wraparound, the free group and the non-box windows
    for F in WINDOWS[f.descriptor]:
        A = G.compress(f, F).to_csc()
        assert A.has_canonical_format and A.shape == (len(F), len(F))
        dtype = np.complex128 if f.domain == ring.COMPLEX else np.float64
        want = np.zeros((len(F), len(F)), dtype=dtype)
        rows, cols, vals = oracle_compress(f, F)
        want[rows, cols] = np.array(vals, dtype=dtype)
        assert A.dtype == dtype and np.array_equal(A.toarray(), want)


def test_key_index_finds_rows_and_misses_the_rest():
    rng = random.Random(7)
    arrays = groups.CoordinateArrays(H3)
    pts = list({tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(300)})
    index = groups.KeyIndex(arrays.rows(pts))
    assert index.find(arrays.rows(pts)).tolist() == list(range(len(pts)))
    # outside the indexed rows' box, then inside it but not indexed
    others = [(0, 0, 50), (-20, 0, 0), (9, 9, 10)]
    others += [p for p in itertools.product(range(-2, 3), repeat=3) if p not in set(pts)]
    assert (index.find(arrays.rows(others)) == -1).all()


def test_translation_overflow_raises(monkeypatch):
    # the int64 array path refuses what it cannot hold exactly
    monkeypatch.setattr(groups, "_SMALL_TRANSLATES", 0)
    big = 2 ** 40
    f = el(H3, {(big, 0, 0): 1})
    F = G.window_from_coords(H3, [(0, big, 0), (0, 0, 0)])
    with pytest.raises(ScaleExceeded):
        G.compress(f, F)
    # a window whose bounding box holds more than 2^62 keys
    far = G.window_from_coords(Z2, [(0, 0), (2 ** 31, 2 ** 31)])
    with pytest.raises(ScaleExceeded):
        G.compress(el(Z2, {(0, 0): 1}), far)
