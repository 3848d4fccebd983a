"""Group families, canonical elements and Folner windows.

Supported families: integer lattices Z^d, the discrete Heisenberg group
H3(Z), finite products of cyclic groups, and the free group of rank 2.
The free group is non-amenable and is admitted only so that the l1-growth
computation is expressible; all Folner operations reject it.

Canonical coordinates:
  * lattice     -- tuple of d integers
  * heisenberg  -- (x, y, z) with law
                   (x1,y1,z1)(x2,y2,z2) = (x1+x2, y1+y2, z1+z2+x1*y2)
  * cyclic      -- residues reduced into [0, modulus)
  * free2       -- reduced word, a tuple over {1, -1, 2, -2} meaning
                   a, a^-1, b, b^-1, with no adjacent inverse pair

A Folner window carries its points as int64 coordinate rows; every window
operation runs on those rows and one KeyIndex of them, and GroupElements
are built only when a caller asks for them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import (
    DescriptorMismatch,
    DomainError,
    FormatError,
    ScaleExceeded,
    UnsupportedFamily,
)

LATTICE = "lattice"
HEISENBERG = "heisenberg"
CYCLIC = "cyclic"
FREE2 = "free2"

_FREE_LETTERS = {1: "a", -1: "a^-1", 2: "b", -2: "b^-1"}
_FREE_TOKENS = {v: k for k, v in _FREE_LETTERS.items()}


@dataclass(frozen=True)
class GroupDescriptor:
    """Identifies a group family together with its parameters."""

    family: str
    params: tuple = ()

    def __post_init__(self):
        if self.family == LATTICE:
            d = _as_int(self.params[0], "lattice rank") if len(self.params) == 1 else 0
            if d < 1:
                raise DomainError("lattice rank must be a positive integer")
            object.__setattr__(self, "params", (d,))
        elif self.family == CYCLIC:
            moduli = tuple(_as_int(m, "every cyclic modulus") for m in self.params)
            if not moduli or min(moduli) < 2:
                raise DomainError("every cyclic modulus must be an integer >= 2")
            object.__setattr__(self, "params", moduli)
        elif self.family in (HEISENBERG, FREE2):
            if self.params:
                raise DomainError(f"{self.family} takes no parameters")
        else:
            raise DomainError(f"unknown group family {self.family!r}")

    @property
    def is_amenable(self) -> bool:
        return self.family != FREE2

    @property
    def is_finite(self) -> bool:
        return self.family == CYCLIC

    def order(self) -> int:
        if self.family != CYCLIC:
            raise DomainError("order() is defined for finite groups only")
        n = 1
        for m in self.params:
            n *= m
        return n

    def __str__(self) -> str:
        return descriptor_string(self)


def _as_int(x, what: str) -> int:
    """x as a Python int; bools, floats and the like raise, never truncate."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise DomainError(f"{what} must be an integer")
    return int(x)


def integer_lattice(d: int) -> GroupDescriptor:
    return GroupDescriptor(LATTICE, (d,))


def heisenberg3() -> GroupDescriptor:
    return GroupDescriptor(HEISENBERG)


def cyclic_product(moduli: Iterable[int]) -> GroupDescriptor:
    return GroupDescriptor(CYCLIC, tuple(moduli))


def free_group_rank2() -> GroupDescriptor:
    return GroupDescriptor(FREE2)


def descriptor_string(desc: GroupDescriptor) -> str:
    """Serialize a descriptor: Z^d, H3, Zmod:m1xm2x..., F2."""
    if desc.family == LATTICE:
        return f"Z^{desc.params[0]}"
    if desc.family == HEISENBERG:
        return "H3"
    if desc.family == CYCLIC:
        return "Zmod:" + "x".join(str(m) for m in desc.params)
    return "F2"


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse the string form produced by descriptor_string."""
    s = text.strip()
    if s == "H3":
        return heisenberg3()
    if s == "F2":
        return free_group_rank2()
    if s.startswith("Z^"):
        try:
            return integer_lattice(int(s[2:]))
        except ValueError as exc:
            raise FormatError(f"bad lattice descriptor {text!r}") from exc
    if s.startswith("Zmod:"):
        try:
            return cyclic_product(int(tok) for tok in s[5:].split("x"))
        except ValueError as exc:
            raise FormatError(f"bad cyclic descriptor {text!r}") from exc
    raise FormatError(f"unknown group descriptor {text!r}")


# ---------------------------------------------------------------------------
# coordinate kernels on raw tuples

def _mul_lattice(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mul_heis(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


def _reduce_word(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _mul_free(a, b):
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def coordinate_multiplier(desc: GroupDescriptor):
    """Return a function multiplying raw coordinate tuples for this family."""
    if desc.family == LATTICE:
        return _mul_lattice
    if desc.family == HEISENBERG:
        return _mul_heis
    if desc.family == CYCLIC:
        moduli = desc.params
        def mul(a, b, _m=moduli):
            return tuple((x + y) % m for x, y, m in zip(a, b, _m))
        return mul
    return _mul_free


def _inverse_coords(desc: GroupDescriptor, c):
    if desc.family == LATTICE:
        return tuple(-x for x in c)
    if desc.family == HEISENBERG:
        # (x,y,z)^-1 = (-x,-y,-z+xy); check: z + (-z+xy) + x*(-y) = 0
        return (-c[0], -c[1], -c[2] + c[0] * c[1])
    if desc.family == CYCLIC:
        return tuple((-x) % m for x, m in zip(c, desc.params))
    return tuple(-letter for letter in reversed(c))


def _canonical_coords(desc: GroupDescriptor, c):
    if desc.family == CYCLIC:
        c = tuple(c)
        if len(c) != len(desc.params):
            raise DomainError("coordinate length does not match moduli")
        return tuple(int(x) % m for x, m in zip(c, desc.params))
    if desc.family == LATTICE:
        c = tuple(int(x) for x in c)
        if len(c) != desc.params[0]:
            raise DomainError("coordinate length does not match lattice rank")
        return c
    if desc.family == HEISENBERG:
        c = tuple(int(x) for x in c)
        if len(c) != 3:
            raise DomainError("Heisenberg elements have three coordinates")
        return c
    word = tuple(int(x) for x in c)
    if any(letter not in _FREE_LETTERS for letter in word):
        raise DomainError("free-group letters must be one of 1,-1,2,-2")
    return _reduce_word(word)


class GroupElement:
    """A group element in canonical coordinates. Immutable and hashable."""

    __slots__ = ("descriptor", "coords", "_hash")

    def __init__(self, descriptor: GroupDescriptor, coords):
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "coords", _canonical_coords(descriptor, coords))
        object.__setattr__(self, "_hash", hash((descriptor, self.coords)))

    def __setattr__(self, *_):
        raise AttributeError("GroupElement is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.descriptor == other.descriptor
            and self.coords == other.coords
        )

    def __repr__(self):
        return f"GroupElement({descriptor_string(self.descriptor)}, {self.coords})"

    def sort_key(self):
        if self.descriptor.family == FREE2:
            return (len(self.coords), self.coords)
        return self.coords


def identity(desc: GroupDescriptor) -> GroupElement:
    return GroupElement(desc, () if desc.family == FREE2 else (0,) * _coordinate_width(desc))


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.descriptor != h.descriptor:
        raise DescriptorMismatch("elements belong to different groups")
    mul = coordinate_multiplier(g.descriptor)
    return GroupElement(g.descriptor, mul(g.coords, h.coords))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.descriptor, _inverse_coords(g.descriptor, g.coords))


# ---------------------------------------------------------------------------
# vectorized coordinate kernel
#
# Compressions, power walks, boundary ratios, quasitilings and perturbed
# compressions all translate through it, on int64 rows: lattice, Heisenberg
# and cyclic rows are the coordinates themselves; free-group words are
# interned to ids by the CoordinateArrays object that made the rows, so rows
# made by different objects must not be mixed.

_INT64_MAX = (1 << 63) - 1
_KEY_LIMIT = 1 << 62


def _coordinate_width(desc: GroupDescriptor) -> int:
    if desc.family == LATTICE:
        return desc.params[0]
    if desc.family == HEISENBERG:
        return 3
    if desc.family == CYCLIC:
        return len(desc.params)
    return 1


def _column_bounds(A: np.ndarray):
    """Per-column (min, max) lists of Python ints; an empty box for no rows."""
    if not len(A):
        return [0] * A.shape[1], [-1] * A.shape[1]
    # column by column: a reduction along axis 0 of an (n, k) array is
    # several times slower
    cols = [A[:, d] for d in range(A.shape[1])]
    return [int(c.min()) for c in cols], [int(c.max()) for c in cols]


class CoordinateArrays:
    """Vectorized left translation on int64 coordinate rows of one group."""

    def __init__(self, desc: GroupDescriptor):
        self.descriptor = desc
        self.width = _coordinate_width(desc)
        self._mul = coordinate_multiplier(desc)
        self._words: list = []   # free group: id -> word
        self._ids: dict = {}     # free group: word -> id

    def _intern(self, word) -> int:
        i = self._ids.get(word)
        if i is None:
            i = self._ids[word] = len(self._words)
            self._words.append(word)
        return i

    def rows(self, coords) -> np.ndarray:
        """The (n, width) int64 rows of an iterable of canonical coordinate tuples."""
        if self.descriptor.family == FREE2:
            return np.array([self._intern(w) for w in coords], dtype=np.int64).reshape(-1, 1)
        try:
            return np.array(list(coords), dtype=np.int64).reshape(-1, self.width)
        except OverflowError as exc:
            raise ScaleExceeded("coordinates do not fit in int64") from exc

    def coords(self, R: np.ndarray) -> list:
        """The coordinate tuples of int64 rows made by this object."""
        if self.descriptor.family == FREE2:
            return [self._words[i] for i in R[:, 0].tolist()]
        return list(map(tuple, R.tolist()))

    def translate(self, S: np.ndarray, C: np.ndarray, bounds):
        """(T, T bounds) with T[t, j] = S[t] . C[j], of shape (len(S), len(C), width).

        ``bounds`` are per-column (min, max) lists enclosing the rows of C;
        the returned ones enclose the rows of T.
        """
        family = self.descriptor.family
        if family == FREE2:
            words, mul, intern = self._words, self._mul, self._intern
            cw = self.coords(C)
            T = [[intern(mul(words[s], w)) for w in cw] for s in S[:, 0].tolist()]
            T = np.array(T, dtype=np.int64).reshape(len(S), len(C), 1)
            return T, ([0], [len(words) - 1])
        if not len(S):
            return np.empty((0, len(C), self.width), dtype=np.int64), bounds
        lo, hi = bounds
        s_cols = S.T.tolist()
        s_lo, s_hi = [min(c) for c in s_cols], [max(c) for c in s_cols]
        reach = [max(-a, b) + max(-c, d) for a, b, c, d in zip(s_lo, s_hi, lo, hi)]
        t_lo = [a + c for a, c in zip(s_lo, lo)]
        t_hi = [b + d for b, d in zip(s_hi, hi)]
        if family == HEISENBERG:
            # z gains x_s * y_c: bound it term by term
            reach[2] += max(-s_lo[0], s_hi[0]) * max(-lo[1], hi[1])
            shifts = [(sz + min(sx * lo[1], sx * hi[1]), sz + max(sx * lo[1], sx * hi[1]))
                      for sx, _, sz in S.tolist()]
            t_lo[2] = lo[2] + min(a for a, _ in shifts)
            t_hi[2] = hi[2] + max(b for _, b in shifts)
        if max(reach) > _INT64_MAX:
            raise ScaleExceeded("translated coordinates do not fit in int64")
        T = S[:, None, :] + C[None, :, :]
        if family == HEISENBERG:
            T[:, :, 2] += S[:, None, 0] * C[None, :, 1]
        elif family == CYCLIC:
            T %= np.array(self.descriptor.params, dtype=np.int64)
            t_lo, t_hi = [0] * self.width, [m - 1 for m in self.descriptor.params]
        return T, (t_lo, t_hi)


class KeyIndex:
    """Positions of int64 coordinate rows, looked up by mixed-radix key.

    A row c has key sum_d (c_d - lo_d) * stride_d inside a box [lo, hi]
    that encloses the indexed rows, last column fastest, so key order is
    lexicographic coordinate order.  Rows outside the box are never found.
    When the rows fill their box, as those of every standard window do, the
    sorted keys are 0, 1, ..., so find reads a row's rank off its key.
    """

    __slots__ = ("rows", "bounds", "stride", "size", "keys", "order")

    def __init__(self, rows: np.ndarray):
        """Index rows (pairwise distinct) by their position in ``rows``."""
        self.rows = rows
        self._set_box(_column_bounds(rows))
        keys = self._encode(rows)
        if (keys[1:] > keys[:-1]).all():   # already in key order
            self.keys, self.order = keys, None
        else:
            self.order = np.argsort(keys, kind="stable")
            self.keys = keys[self.order]

    @classmethod
    def distinct(cls, T: np.ndarray):
        """The distinct rows of T in key order, and where each row of T went."""
        self = cls.__new__(cls)
        self._set_box(_column_bounds(T))
        return self, self._take_distinct(self._encode(T))

    @classmethod
    def translates(cls, arrays: "CoordinateArrays", S: np.ndarray, index: "KeyIndex"):
        """The distinct rows of S . index.rows in key order, and pos with
        pos[t, j] the row that S[t] . index.rows[j] went to.
        """
        T, bounds = arrays.translate(S, index.rows, index.bounds)
        self = cls.__new__(cls)
        self._set_box(bounds)
        keys = self._encode(T.reshape(-1, arrays.width))
        del T   # the rows come back from the keys, so the translates go before the sort
        return self, self._take_distinct(keys).reshape(len(S), len(index.rows))

    def _set_box(self, bounds) -> None:
        """Key the box given by per-column (min, max) lists."""
        self.bounds = lo, hi = bounds
        stride, size = [], 1
        for a, b in zip(reversed(lo), reversed(hi)):
            stride.append(size)
            size *= max(b - a + 1, 1)
        if size > _KEY_LIMIT:
            raise ScaleExceeded("coordinate box too large for int64 keys")
        self.size, self.stride = size, stride[::-1]

    def _take_distinct(self, keys: np.ndarray) -> np.ndarray:
        """Index the distinct keys in order; return where each key went."""
        # np.unique, spelled out so fewer temporaries of len(keys) are alive at once
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.empty(len(keys), dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        self.keys = keys[new]
        del keys
        self.order = None
        self.rows = np.empty((len(self.keys), len(self.stride)), dtype=np.int64)
        rest = self.keys
        for d, step in enumerate(self.stride):
            self.rows[:, d], rest = np.divmod(rest, step)
        self.rows += np.array(self.bounds[0], dtype=np.int64)
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.cumsum(new) - 1
        return inverse

    def _encode(self, Q: np.ndarray) -> np.ndarray:
        # column by column, like _column_bounds
        keys = np.zeros(len(Q), dtype=np.int64)
        for d, (a, step) in enumerate(zip(self.bounds[0], self.stride)):
            keys += (Q[:, d] - a) * step
        return keys

    def find(self, Q: np.ndarray) -> np.ndarray:
        """The position of each row of Q, or -1 where it is not indexed."""
        if not len(self.keys):
            return np.full(len(Q), -1, dtype=np.int64)
        hit = np.ones(len(Q), dtype=bool)
        for d, (a, b) in enumerate(zip(*self.bounds)):
            hit &= (Q[:, d] >= a) & (Q[:, d] <= b)
        keys = self._encode(Q)
        if len(self.keys) == self.size:
            at = keys   # the rows fill their box: a key is its rank
        else:
            at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
            hit &= self.keys[at] == keys
        if self.order is not None:
            at = self.order[at * hit]   # a missed row reads rank 0
        return np.where(hit, at, -1)


# ---------------------------------------------------------------------------
# element <-> token text (used by the .gre format)

def element_tokens(g: GroupElement) -> list[str]:
    if g.descriptor.family == FREE2:
        return [_FREE_LETTERS[letter] for letter in g.coords]
    return [str(x) for x in g.coords]


def element_from_tokens(desc: GroupDescriptor, tokens: list[str]) -> GroupElement:
    if desc.family == FREE2:
        try:
            word = [_FREE_TOKENS[t] for t in tokens]
        except KeyError as exc:
            raise FormatError(f"bad free-group letter {exc.args[0]!r}") from exc
        return GroupElement(desc, word)
    try:
        coords = [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"bad integer coordinate in {tokens!r}") from exc
    return GroupElement(desc, coords)


# ---------------------------------------------------------------------------
# Folner windows

class FolnerWindow:
    """An ordered finite subset of a group, with positional index.

    The element order is part of the contract: it fixes matrix indexing for
    compressions, so two windows built from equal arguments are identical.
    A window keeps its canonical ``coords`` or its int64 ``rows`` in its own
    CoordinateArrays ``arrays`` (F2 words as ids interned there).  The other
    form, the GroupElements, the element -> position ``index`` and the
    KeyIndex of the rows are built on first use.  Equality and hashing go by
    the group and the coordinates in order.
    """

    def __init__(self, descriptor: GroupDescriptor, elements, n: Optional[int] = None):
        elems = tuple(elements)
        if any(not isinstance(g, GroupElement) or g.descriptor != descriptor for g in elems):
            raise DescriptorMismatch("window element over wrong group")
        self._init(descriptor, n, coords=tuple(g.coords for g in elems))
        vars(self)["elements"] = elems

    def _init(self, descriptor, n, **form) -> None:
        """Set up from one form, rows= or coords=; the rest is cached lazily."""
        (values,) = form.values()
        if not len(values):
            raise DomainError("window must be nonempty")
        if "coords" in form and len(set(values)) < len(values):
            raise DomainError("window elements must be distinct")
        vars(self).update(descriptor=descriptor, n=n, arrays=CoordinateArrays(descriptor), **form)

    @classmethod
    def _from(cls, descriptor, n=None, **form) -> "FolnerWindow":
        self = cls.__new__(cls)
        self._init(descriptor, n, **form)
        return self

    # cached_property writes the instance dict directly, past __setattr__
    @cached_property
    def rows(self) -> np.ndarray:
        """(len, width) int64 rows in window order; ScaleExceeded past int64."""
        return self.arrays.rows(self.coords)

    @cached_property
    def coords(self) -> tuple:
        """Canonical coordinate tuples in window order."""
        return tuple(self.arrays.coords(self.rows))

    @cached_property
    def elements(self) -> tuple:
        return tuple(GroupElement(self.descriptor, c) for c in self.coords)

    @cached_property
    def index(self) -> dict:
        return {g: i for i, g in enumerate(self.elements)}

    @cached_property
    def key_index(self) -> "KeyIndex":
        return KeyIndex(self.rows)

    def __setattr__(self, *_):
        raise AttributeError("FolnerWindow is immutable")

    __delattr__ = __setattr__

    def __len__(self):
        return len(self.coords) if "coords" in vars(self) else len(self.rows)

    def __contains__(self, g):
        return g in self.index

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FolnerWindow)
            and self.descriptor == other.descriptor
            and len(self) == len(other)
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.descriptor, self.coords))

    def __repr__(self):
        return f"FolnerWindow({descriptor_string(self.descriptor)}, size={len(self)}, n={self.n})"


def window_from_coords(desc: GroupDescriptor, coords_list) -> FolnerWindow:
    """Build a window from raw coordinates, preserving the given order."""
    return FolnerWindow._from(desc, coords=tuple(_canonical_coords(desc, c) for c in coords_list))


def folner_window(desc: GroupDescriptor, n: int) -> FolnerWindow:
    """The standard window at stage n, in lexicographic coordinate order.

    Lattice: box [-n, n]^d.  Heisenberg: |x| <= n, |y| <= n, |z| <= n^2
    (the z-range follows the group's growth so boundary ratios vanish).
    Finite groups: the whole group, independent of n.  The window is built
    as the rows of its box; no GroupElement is made until one is asked for.
    """
    if not desc.is_amenable:
        raise UnsupportedFamily("free group admits no Folner windows")
    n = _as_int(n, "window stage")
    if n < 1:
        raise DomainError("window stage must be >= 1")
    if desc.family == LATTICE:
        lo, hi = [-n] * desc.params[0], [n] * desc.params[0]
    elif desc.family == HEISENBERG:
        lo, hi = [-n, -n, -n * n], [n, n, n * n]
    else:
        lo, hi = [0] * len(desc.params), [m - 1 for m in desc.params]
    return FolnerWindow._from(desc, n, rows=_box_coords_array(lo, hi))


# Up to this many translates the dict path is used.  A dict call costs about
# 25 us plus 2 us a translate.  The array path costs about 35 us once the
# window's KeyIndex is cached, but 90-130 us on a window's first call, which
# builds it.  The finite workload's small calls (2 to 48 translates on
# cyclic windows) are nearly all first calls: there the dict path was faster
# at every size up to 36, as fast at 40 and 12% faster at 48.  Windows reused
# many times would do better with a limit near 20.  Only the dict path
# handles small windows whose products leave int64.
_SMALL_TRANSLATES = 40


def window_translates(F: FolnerWindow, S) -> np.ndarray:
    """pos[t, j] = position in F of S[t] . F[j], or -1 when it leaves F.

    S is a sequence of raw coordinate tuples.
    """
    if len(S) * len(F) <= _SMALL_TRANSLATES:
        mul = coordinate_multiplier(F.descriptor)
        index = {c: i for i, c in enumerate(F.coords)}
        pos = [[index.get(mul(s, c), -1) for c in F.coords] for s in S]
        return np.array(pos, dtype=np.int64).reshape(len(S), len(F))
    arrays, index = F.arrays, F.key_index
    T, _ = arrays.translate(arrays.rows(S), index.rows, index.bounds)
    return index.find(T.reshape(-1, arrays.width)).reshape(len(T), len(F))


def _box_coords_array(lo, hi) -> np.ndarray:
    """The rows of the box [lo, hi] in lexicographic order."""
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def boundary_ratio(window: FolnerWindow, K) -> Fraction:
    """Exact |K.F symm-diff F| / |F| for a finite nonempty K.

    The window's KeyIndex finds the members among the translates, one
    element of K at a time (Heisenberg boxes reach millions of rows); the
    window positions no translate hits count as F \\ KF.
    """
    K = list(K)
    if not K:
        raise DomainError("K must be nonempty")
    if any(k.descriptor != window.descriptor for k in K):
        raise DescriptorMismatch("K element over wrong group")
    arrays, index = window.arrays, window.key_index
    # hit[i] for the window positions, and a last slot that -1 lands in
    hit, pieces = np.zeros(len(window) + 1, dtype=bool), []
    for k in arrays.rows(k.coords for k in K):
        shifted = arrays.translate(k[None, :], index.rows, index.bounds)[0][0]
        at = index.find(shifted)
        hit[at] = True
        outside = np.compress(at < 0, shifted, axis=0)
        if len(outside):
            pieces.append(outside)
    count = len(KeyIndex.distinct(np.vstack(pieces))[0].rows) if pieces else 0
    return Fraction(count + len(window) - int(np.count_nonzero(hit[:-1])), len(window))
