import random
from fractions import Fraction

import numpy as np
import pytest

import grdet as G
from grdet.errors import DomainError, UnsupportedFamily

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)
H3 = G.heisenberg3()
C5 = G.cyclic_product([5])
F2 = G.free_group_rank2()

ALL_FAMILIES = [Z2, H3, G.cyclic_product([4, 6]), F2]


def rand_element(rng, desc):
    if desc.family == "lattice":
        return G.GroupElement(desc, tuple(rng.randint(-6, 6) for _ in range(desc.params[0])))
    if desc.family == "heisenberg":
        return G.GroupElement(desc, tuple(rng.randint(-6, 6) for _ in range(3)))
    if desc.family == "cyclic":
        return G.GroupElement(desc, tuple(rng.randrange(m) for m in desc.params))
    word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))]
    return G.GroupElement(desc, word)


def test_multiply_examples():
    assert G.multiply(G.GroupElement(Z2, (1, 0)), G.GroupElement(Z2, (0, 1))).coords == (1, 1)
    a = G.GroupElement(H3, (1, 0, 0))
    b = G.GroupElement(H3, (0, 1, 0))
    assert G.multiply(a, b).coords == (1, 1, 1)
    assert G.multiply(b, a).coords == (1, 1, 0)
    # (a b) (b^-1 a) reduces to a a
    w1 = G.GroupElement(F2, (1, 2))
    w2 = G.GroupElement(F2, (-2, 1))
    assert G.multiply(w1, w2).coords == (1, 1)


def test_multiply_descriptor_mismatch():
    with pytest.raises(G.DescriptorMismatch):
        G.multiply(G.GroupElement(Z1, (1,)), G.GroupElement(C5, (1,)))


def test_inverse_examples():
    assert G.inverse(G.GroupElement(Z2, (3, -1))).coords == (-3, 1)
    # Heisenberg: solve (1,1,0)(x,y,z) = e from the group law
    g = G.GroupElement(H3, (1, 1, 0))
    assert G.inverse(g).coords == (-1, -1, 1)
    assert G.multiply(g, G.inverse(g)) == G.identity(H3)
    assert G.inverse(G.GroupElement(C5, (2,))).coords == (3,)


def test_group_laws_randomized():
    rng = random.Random(12345)
    for desc in ALL_FAMILIES:
        e = G.identity(desc)
        for _ in range(60):
            g = rand_element(rng, desc)
            h = rand_element(rng, desc)
            k = rand_element(rng, desc)
            assert G.multiply(G.multiply(g, h), k) == G.multiply(g, G.multiply(h, k))
            assert G.multiply(g, e) == g
            assert G.multiply(e, g) == g
            assert G.multiply(g, G.inverse(g)) == e
            assert G.inverse(G.inverse(g)) == g


def test_free_word_canonical_form():
    # adjacent inverse pairs collapse on construction
    assert G.GroupElement(F2, (1, -1, 2)).coords == (2,)
    assert G.GroupElement(F2, (1, 2, -2, -1)).coords == ()


def test_folner_window_examples():
    w = G.folner_window(Z1, 2)
    assert [g.coords for g in w.elements] == [(-2,), (-1,), (0,), (1,), (2,)]
    assert len(G.folner_window(H3, 1)) == 27
    assert len(G.folner_window(C5, 3)) == 5
    with pytest.raises(UnsupportedFamily):
        G.folner_window(F2, 1)


def test_window_determinism():
    a = G.folner_window(H3, 2)
    b = G.folner_window(H3, 2)
    assert a.elements == b.elements
    assert a.index == b.index


C23 = G.cyclic_product([2, 3])


@pytest.mark.parametrize("desc,coords", [
    (Z2, [(i, j) for i in range(-1, 2) for j in range(-1, 2)]),
    (H3, [(x, y, z) for x in range(-1, 2) for y in range(-1, 2) for z in range(-1, 2)]),
    (C23, [(i, j) for i in range(2) for j in range(3)]),
], ids=["Z^2", "H3", "C2xC3"])
def test_windows_equal_by_content(desc, coords):
    built = [G.folner_window(desc, 1), G.window_from_coords(desc, coords),
             G.FolnerWindow(desc, [G.GroupElement(desc, c) for c in coords])]
    if desc.family == "cyclic":
        # residues that are not reduced canonicalize to the same window
        shifted = [(i + 2, j - 3) for i, j in coords]
        built += [G.window_from_coords(desc, shifted),
                  G.FolnerWindow(desc, [G.GroupElement(desc, c) for c in shifted])]
    for a in built:
        for b in built:
            assert a == b and hash(a) == hash(b)
        assert a.coords == tuple(coords)
    reordered = G.window_from_coords(desc, coords[1:] + coords[:1])
    for a in built:
        assert a != reordered and a != G.window_from_coords(desc, coords[:-1])
    # same size, one point swapped for another
    part = G.FolnerWindow(desc, [G.GroupElement(desc, c) for c in coords[:-1]])
    assert part != G.window_from_coords(desc, coords[:-2] + coords[-1:])
    assert part == G.window_from_coords(desc, coords[:-1])


def test_free_windows_equal_by_content():
    words = [(), (2,), (2, -1), (-2, -2, 1)]
    unreduced = [(1, -1), (2, 1, -1), (2, -1), (-2, -2, 1, 2, -2)]
    built = [G.window_from_coords(F2, words), G.window_from_coords(F2, unreduced),
             G.FolnerWindow(F2, [G.GroupElement(F2, w) for w in unreduced])]
    # the same words interned in another order get other ids, not another window
    built[1].arrays.rows([(1, 1), (2, -1)])
    assert not np.array_equal(built[0].rows, built[1].rows)
    for a in built:
        for b in built:
            assert a == b and hash(a) == hash(b)
        assert a.coords == tuple(words)
    assert built[0] != G.window_from_coords(F2, words[::-1])
    assert built[0] != G.window_from_coords(F2, words[:-1] + [(1, 1)])
    with pytest.raises(DomainError, match="distinct"):
        G.window_from_coords(F2, [(1,), (1, 2, -2)])


def test_window_validation():
    with pytest.raises(DomainError, match="nonempty"):
        G.window_from_coords(Z1, [])
    with pytest.raises(DomainError, match="nonempty"):
        G.FolnerWindow(Z1, [])
    with pytest.raises(DomainError, match="distinct"):
        G.window_from_coords(C5, [(1,), (6,)])
    with pytest.raises(DomainError, match="rank"):
        G.window_from_coords(Z2, [(1,)])
    with pytest.raises(G.DescriptorMismatch):
        G.FolnerWindow(Z1, [G.GroupElement(C5, (1,))])


def test_integer_parameters_are_checked_not_truncated():
    for desc, n in ((Z1, 2.5), (H3, 1.5), (Z1, True), (C5, 1.0), (Z2, "2")):
        with pytest.raises(DomainError, match="window stage must be an integer"):
            G.folner_window(desc, n)
    assert G.folner_window(Z1, np.int64(2)) == G.folner_window(Z1, 2)
    assert type(G.folner_window(H3, np.int64(1)).n) is int
    with pytest.raises(DomainError, match="cyclic modulus must be an integer"):
        G.cyclic_product([6.9, 3])
    assert G.cyclic_product([np.int64(6), 3]) == G.cyclic_product([6, 3])
    for params in ((1, 2), (), (1.0,), (0,)):
        with pytest.raises(DomainError, match="lattice rank"):
            G.GroupDescriptor("lattice", params)


def test_cyclic_descriptor_checks_moduli_like_cyclic_product():
    desc = G.GroupDescriptor("cyclic", (np.int64(6), 3))
    assert desc == G.cyclic_product([6, 3]) and type(desc.params[0]) is int
    assert G.descriptor_string(desc) == "Zmod:6x3"
    for params in ((True, 3), (6.0,), (1,), ()):
        with pytest.raises(DomainError, match="cyclic modulus must be an integer"):
            G.GroupDescriptor("cyclic", params)


F_SA = G.ring_element(Z1, {(0,): 3, (1,): 1, (-1,): 1})


@pytest.mark.parametrize("call, value", [
    (G.integer_lattice, 2),
    (lambda d: G.GroupDescriptor("lattice", (d,)), 2),
    (lambda N: G.mahler_grid(F_SA, N), 64),
    (lambda N: G.circulant_logdet(F_SA, N), 8),
    (lambda k: G.power(F_SA, k), 2),
], ids=["integer_lattice", "GroupDescriptor", "mahler_grid", "circulant_logdet", "power"])
def test_integer_parameters_take_numpy_ints_and_refuse_bools(call, value):
    assert call(np.int64(value)) == call(value)
    for bad in (True, float(value), str(value)):
        with pytest.raises(DomainError, match="must be an integer"):
            call(bad)


def test_cyclic_coordinates_of_the_wrong_length_are_refused():
    C23 = G.cyclic_product([2, 3])
    for desc, c in ((C5, (1, 2, 3)), (C5, ()), (C23, (1,)), (C23, (1, 2, 0))):
        with pytest.raises(DomainError, match="moduli"):
            G.GroupElement(desc, c)
        with pytest.raises(DomainError, match="moduli"):
            G.window_from_coords(desc, [c])


def test_wide_window_constructs_and_builds_elements_on_request():
    # a window whose key box exceeds int64 still constructs; only the
    # array paths that need its keys refuse it
    far = G.window_from_coords(Z2, [(0, 0), (2 ** 31, 2 ** 31)])
    assert len(far) == 2 and G.GroupElement(Z2, (2 ** 31, 2 ** 31)) in far
    w = G.folner_window(H3, 2)
    assert "elements" not in vars(w)
    assert w.elements[0] == G.GroupElement(H3, (-2, -2, -4)) and w.index[w.elements[-1]] == len(w) - 1


def test_sections_build_no_element_per_window_point(monkeypatch):
    built = []
    init = G.GroupElement.__init__

    def counting(self, descriptor, coords):
        built.append(coords)
        init(self, descriptor, coords)

    f = G.ring_element(H3, {(0, 0, 0): 5, (1, 0, 0): 1, (-1, 0, 0): 1, (0, 1, 0): 1, (0, -1, 0): 1})
    monkeypatch.setattr(G.GroupElement, "__init__", counting)
    counts = {}
    for n in (2, 5):
        built.clear()
        table = G.fk_finite_sections(f, [G.folner_window(H3, n)], assume_invertible=True)
        assert table.rows[0].window_size == (2 * n + 1) ** 2 * (2 * n * n + 1)
        counts[n] = len(built)
    assert counts[5] == counts[2] < 100


def test_boundary_ratio_examples():
    F = G.window_from_coords(Z1, [(i,) for i in range(10)])
    K = [G.GroupElement(Z1, (k,)) for k in (-1, 0, 1)]
    # K.F = {-1..10}; symmetric difference {-1, 10}
    assert G.boundary_ratio(F, K) == Fraction(2, 10)

    full = G.folner_window(C5, 1)
    K5 = [G.GroupElement(C5, (j,)) for j in (0, 1, 2)]
    assert G.boundary_ratio(full, K5) == 0

    F2d = G.window_from_coords(Z2, [(i, j) for i in range(5) for j in range(5)])
    cross = [G.GroupElement(Z2, c) for c in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]]
    assert G.boundary_ratio(F2d, cross) == Fraction(20, 25)

    with pytest.raises(DomainError):
        G.boundary_ratio(F, [])


def test_boundary_ratio_fast_path_matches_generic():
    cross = [G.GroupElement(Z2, c) for c in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]]
    for n in (1, 2, 5):
        w = G.folner_window(Z2, n)
        generic = G.window_from_coords(Z2, [g.coords for g in w.elements])
        assert G.boundary_ratio(w, cross) == G.boundary_ratio(generic, cross)
    KH = [G.GroupElement(H3, c) for c in [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]]
    for n in (1, 2, 3):
        w = G.folner_window(H3, n)
        generic = G.window_from_coords(H3, [g.coords for g in w.elements])
        assert G.boundary_ratio(w, KH) == G.boundary_ratio(generic, KH)


def test_boundary_ratio_vanishes_along_windows():
    # ratio is eventually non-increasing and falls below 0.1 / 0.01 at
    # explicit stages (Heisenberg at 0.01 needs ~10^10-element windows and
    # is documented as out of desk scale)
    K1 = [G.GroupElement(Z1, (k,)) for k in (-1, 0, 1)]
    vals = [G.boundary_ratio(G.folner_window(Z1, n), K1) for n in (2, 4, 8, 16, 32, 64, 128)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert G.boundary_ratio(G.folner_window(Z1, 10), K1) < Fraction(1, 10)
    assert G.boundary_ratio(G.folner_window(Z1, 100), K1) < Fraction(1, 100)

    cross = [G.GroupElement(Z2, c) for c in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]]
    assert G.boundary_ratio(G.folner_window(Z2, 20), cross) < Fraction(1, 10)
    assert G.boundary_ratio(G.folner_window(Z2, 200), cross) < Fraction(1, 100)

    KH = [G.GroupElement(H3, c) for c in [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]]
    hv = [G.boundary_ratio(G.folner_window(H3, n), KH) for n in (4, 8, 16)]
    assert all(b <= a for a, b in zip(hv, hv[1:]))


def test_descriptor_strings():
    for desc in [Z1, Z2, H3, C5, G.cyclic_product([2, 3, 4]), F2]:
        assert G.parse_descriptor(G.descriptor_string(desc)) == desc
    with pytest.raises(G.FormatError):
        G.parse_descriptor("Q^2")
