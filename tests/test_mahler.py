import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import grdet as G
from grdet.errors import DomainError
from grdet.mahler import ZERO_SYMBOL_FLOOR

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)


def zpoly(mapping, desc=Z1):
    return G.ring_element(desc, {(k,) if isinstance(k, int) else k: v for k, v in mapping.items()})


def rand_nonvanishing(rng, desc, span=2):
    """c e + r with |c| > |r|_1: the symbol cannot vanish on the torus."""
    d = desc.params[0]
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            g = tuple(rng.randint(-span, span) for _ in range(d))
            if g == (0,) * d:
                continue
            terms[g] = rng.randint(-2, 2)
        r = G.ring_element(desc, terms)
        norm = G.l1_norm(r)
        c = int(norm) + rng.randint(1, 3)
        if rng.random() < 0.5:
            c = -c
        return G.add(G.ring_element(desc, {(0,) * d: c}), r)


def oracle_symbol_values(f, N):
    """|f| at every point of the N-th-roots grid, one point at a time.

    The per-point evaluator mahler_grid used before it shared the torus-min
    certificate's array evaluation: each value is an exact-rounded sum
    (math.fsum) of the term contributions.
    """
    d = f.descriptor.params[0]
    table = [cmath.exp(2j * math.pi * j / N) for j in range(N)]
    terms = [(g.coords, complex(v)) for g, v in f.sorted_terms()]
    out = []
    for flat in range(N ** d):
        k = []
        rem = flat
        for _ in range(d):
            k.append(rem % N)
            rem //= N
        k.reverse()
        parts = [c * table[sum(e * ki for e, ki in zip(exp, k)) % N] for exp, c in terms]
        re = math.fsum(p.real for p in parts)
        im = math.fsum(p.imag for p in parts)
        out.append(math.hypot(re, im))
    return out


def oracle_mahler_grid(f, N):
    logs = [math.log(v) for v in oracle_symbol_values(f, N) if v >= ZERO_SYMBOL_FLOOR]
    return math.fsum(logs) / len(logs)


def test_mahler_roots_examples():
    assert G.mahler_roots(zpoly({0: 2})) == pytest.approx(math.log(2), rel=1e-14)
    assert G.mahler_roots(zpoly({1: 1})) == 0.0
    # roots of z^2 + 3z + 1; the larger magnitude is (3 + sqrt 5)/2
    expected = math.log((3 + math.sqrt(5)) / 2)
    assert G.mahler_roots(zpoly({0: 3, 1: 1, -1: 1})) == pytest.approx(expected, abs=1e-12)


def test_mahler_roots_rejects():
    with pytest.raises(DomainError, match="^mahler_roots rejects the zero element$"):
        G.mahler_roots(G.zero_element(Z1))
    with pytest.raises(DomainError, match="^mahler_roots needs d = 1$"):
        G.mahler_roots(zpoly({(0, 0): 1}, Z2))
    with pytest.raises(DomainError, match="^mahler_roots needs d = 1$"):
        G.mahler_roots(G.zero_element(Z2))
    with pytest.raises(DomainError, match="^mahler_roots needs an integer-lattice element$"):
        G.mahler_roots(G.ring_element(G.cyclic_product([5]), {(0,): 2, (1,): 1}))


def test_mahler_roots_reads_laurent_coefficients():
    # u^-2 (5 - u^2 + 2 u^5): the offset drops out, the gaps are zero coefficients
    f = zpoly({-2: 5, 0: -1, 3: 2})
    big = [abs(r) for r in np.roots([2, 0, 0, -1, 0, 5]) if abs(r) > 1.0]
    assert G.mahler_roots(f) == math.fsum([math.log(2)] + [math.log(r) for r in big])
    assert G.mahler_roots(zpoly({-3: Fraction(1, 2)})) == math.log(0.5)


def test_mahler_roots_matches_grid_on_complex_symbols():
    # 3 + i u vanishes at u = 3i, outside the circle: the measure is log 3
    assert G.mahler_roots(zpoly({0: 3, 1: 1j})) == pytest.approx(math.log(3), abs=1e-12)
    rng = random.Random(2026)
    for _ in range(40):
        terms = {k: complex(rng.randint(-2, 2), rng.randint(-2, 2))
                 for k in rng.sample([-3, -2, -1, 1, 2, 3], rng.randint(1, 3))}
        # a dominant constant term keeps every root off the circle
        c = sum(abs(v) for v in terms.values()) + rng.randint(1, 3)
        terms[0] = c * cmath.exp(2j * math.pi * rng.random())
        f = zpoly(terms)
        assert f.domain == "complex"
        assert abs(G.mahler_roots(f) - G.mahler_grid(f, 256)) <= 1e-9


def test_mahler_grid_examples():
    f = G.ring_element(Z2, {(0, 0): 5, (1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    expect = (math.log(9) + math.log(5) + math.log(5) + math.log(1)) / 4
    assert G.mahler_grid(f, 2) == pytest.approx(expect, rel=1e-14)
    assert G.mahler_grid(zpoly({0: 2}), 8) == pytest.approx(math.log(2), rel=1e-14)
    f3 = zpoly({0: 3, 1: 1, -1: 1})
    assert abs(G.mahler_grid(f3, 64) - G.mahler_roots(f3)) < 1e-10


def test_mahler_grid_matches_per_point_oracle():
    rng = random.Random(4096)
    for i in range(24):
        desc = Z1 if i % 2 else Z2
        d = desc.params[0]
        terms = {tuple(rng.randint(-3, 3) for _ in range(d)): rng.randint(-5, 5)
                 for _ in range(rng.randint(1, 5))}
        f = G.ring_element(desc, terms)
        if not f:
            continue
        for N in (2, rng.randint(3, 64), 64):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # grid points on torus zeros
                assert abs(G.mahler_grid(f, N) - oracle_mahler_grid(f, N)) <= 1e-15


def test_mahler_grid_defect_warning():
    # u - 1 vanishes at the grid point 1
    f = zpoly({1: 1, 0: -1})
    with pytest.warns(UserWarning, match="near torus"):
        G.mahler_grid(f, 8)


def test_circulant_examples():
    f = zpoly({0: 2, 1: 1})
    # det of circ(2,1,0) = 2^3 + 1 = 9
    assert G.circulant_logdet(f, 3) == pytest.approx(math.log(9) / 3, rel=1e-12)
    assert G.circulant_logdet(G.identity_element(Z1), 5) == 0.0


def test_circulant_of_a_vanishing_image_is_minus_inf():
    # 1 - u^2 folds to 0 mod 2 and x - x y^3 to 0 mod 3: the circulant is zero
    assert G.circulant_logdet(zpoly({0: 1, 2: -1}), 2) == -math.inf
    assert G.circulant_logdet(zpoly({(1, 0): 1, (1, 3): -1}, Z2), 3) == -math.inf
    assert G.logabsdet(np.zeros((9, 9))) == -math.inf


def test_circulant_matches_grid_randomized():
    rng = random.Random(314)
    for desc in (Z1, Z2):
        for _ in range(8):
            f = rand_nonvanishing(rng, desc)
            for N in (2, 4, 8, 16):
                a = G.mahler_grid(f, N)
                b = G.circulant_logdet(f, N)
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_mahler_multiplicative_randomized():
    rng = random.Random(2718)
    done = 0
    while done < 12:
        f = rand_nonvanishing(rng, Z1)
        g = rand_nonvanishing(rng, Z1)
        prod = G.convolve(f, g)
        lhs = G.mahler_roots(prod)
        rhs = G.mahler_roots(f) + G.mahler_roots(g)
        assert abs(lhs - rhs) < 1e-9
        done += 1


def test_mahler_adjoint_symmetry_exact():
    rng = random.Random(99)
    for _ in range(10):
        f = rand_nonvanishing(rng, Z2)
        for N in (4, 8):
            assert G.mahler_grid(f, N) == G.mahler_grid(G.adjoint(f), N)


def test_mahler_grid_monotonicity_in_symbol():
    # pointwise domination of |symbol| values forces domination of the means
    f = zpoly({0: 3, 1: 1, -1: 1})    # values 3 + 2cos in [1, 5]
    g = zpoly({0: 6, 1: 1, -1: 1})    # values 6 + 2cos, always larger
    for N in (4, 8, 16):
        assert G.mahler_grid(f, N) <= G.mahler_grid(g, N)


def test_mahler_grid_refinement_settles():
    f = zpoly({0: 3, 1: 1, -1: 1})
    deltas = []
    for N in (8, 16, 32, 64):
        deltas.append(abs(G.mahler_grid(f, 2 * N) - G.mahler_grid(f, N)))
    assert all(b <= a for a, b in zip(deltas, deltas[1:]))


def test_mahler_grid_rejects_zero():
    with pytest.raises(DomainError):
        G.mahler_grid(G.zero_element(Z1), 4)
