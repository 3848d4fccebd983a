"""Group-ring arithmetic: finitely supported coefficient maps on a group.

Scalar domains are tagged explicitly:

  * "int"      -- arbitrary-precision Python integers
  * "rational" -- fractions.Fraction (exact)
  * "complex"  -- Python complex (float precision)

The two exact domains mix freely (integers promote to rationals); mixing an
exact domain with the float domain raises, so certified exact computations
can never be contaminated silently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DescriptorMismatch, DomainError, FormatError
from . import groups
from .groups import (
    GroupDescriptor,
    GroupElement,
    coordinate_multiplier,
    descriptor_string,
)

INT = "int"
RATIONAL = "rational"
COMPLEX = "complex"

_EXACT = (INT, RATIONAL)


def _scalar_domain(value):
    if isinstance(value, bool):
        raise DomainError("bool is not a ring scalar")
    if isinstance(value, int):
        return INT
    if isinstance(value, Fraction):
        return RATIONAL
    if isinstance(value, (float, complex)):
        return COMPLEX
    raise DomainError(f"unsupported scalar type {type(value).__name__}")


def _join_domains(a: str, b: str) -> str:
    if a == b:
        return a
    if {a, b} == {INT, RATIONAL}:
        return RATIONAL
    raise DomainError(f"cannot mix scalar domains {a!r} and {b!r}")


def _coerce(value, domain):
    if domain == INT:
        return int(value)
    if domain == RATIONAL:
        return Fraction(value)
    return complex(value)


# ---------------------------------------------------------------------------
# residue arithmetic

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
def _crt_primes(count: int, below: int = 1 << 31) -> tuple:
    """The count largest odd primes below ``below`` (at most 2^31), descending.

    Residues stay below 2^31, so a product of two fits in int64.
    """
    primes = []
    n = (below - 2) | 1
    while len(primes) < count:
        if n < 3:
            raise DomainError(f"fewer than {count} odd primes below {below}")
        if _is_prime(n):
            primes.append(n)
        n -= 2
    return tuple(primes)


# ---------------------------------------------------------------------------
# ring elements

@dataclass(frozen=True, slots=True)
class RingElement:
    """A finitely supported map group -> scalars, with no stored zeros."""

    descriptor: GroupDescriptor
    terms: dict
    domain: str

    def __hash__(self):
        return hash((self.descriptor, self.domain, frozenset(self.terms.items())))

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, g: GroupElement):
        return self.terms.get(g, _coerce(0, self.domain))

    def support(self):
        return frozenset(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1))

    def __neg__(self):
        return scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return convolve(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __repr__(self):
        if not self.terms:
            return f"RingElement({descriptor_string(self.descriptor)}, 0)"
        bits = " + ".join(
            f"{coeff}*{g.coords}" for g, coeff in self.sorted_terms()[:6]
        )
        if len(self.terms) > 6:
            bits += f" + ... ({len(self.terms)} terms)"
        return f"RingElement({descriptor_string(self.descriptor)}, {bits})"


def ring_element(descriptor: GroupDescriptor, mapping, domain: str | None = None) -> RingElement:
    """Build an element from {GroupElement-or-coords: coefficient}.

    The scalar domain is inferred from the values unless given explicitly.
    Zero coefficients are pruned; colliding keys (after canonicalization)
    accumulate.
    """
    # construction coerces a mixed literal (any float/complex value makes the
    # whole element complex); only operations between elements refuse to mix
    seen = set()
    staged = []
    for key, value in mapping.items():
        if not isinstance(key, GroupElement):
            key = GroupElement(descriptor, key)
        elif key.descriptor != descriptor:
            raise DescriptorMismatch("term key over wrong group")
        seen.add(_scalar_domain(value))
        staged.append((key, value))
    if COMPLEX in seen:
        inferred = COMPLEX
    elif RATIONAL in seen:
        inferred = RATIONAL
    else:
        inferred = INT
    dom = domain or inferred
    if domain is not None:
        if domain in _EXACT and inferred == COMPLEX:
            raise DomainError("cannot coerce float coefficients into an exact domain")
        if domain == INT and inferred == RATIONAL:
            raise DomainError("cannot coerce rationals into the integer domain")
    zero = _coerce(0, dom)
    terms: dict = {}
    for key, value in staged:
        acc = terms.get(key, zero) + _coerce(value, dom)
        if acc == zero:
            terms.pop(key, None)
        else:
            terms[key] = acc
    return RingElement(descriptor, terms, dom)


def zero_element(descriptor: GroupDescriptor, domain: str = INT) -> RingElement:
    return RingElement(descriptor, {}, domain)


def identity_element(descriptor: GroupDescriptor, domain: str = INT) -> RingElement:
    return ring_element(descriptor, {groups.identity(descriptor): _coerce(1, domain)}, domain)


def scale(f: RingElement, c) -> RingElement:
    # exact scalars sink into a complex element freely; a float scalar on an
    # exact element is the contamination the domain rules exist to stop
    if f.domain == COMPLEX:
        dom = COMPLEX
    else:
        dom = _join_domains(f.domain, _scalar_domain(c))
    c = _coerce(c, dom)
    zero = _coerce(0, dom)
    if c == zero:
        return RingElement(f.descriptor, {}, dom)
    return RingElement(f.descriptor, {g: _coerce(v, dom) * c for g, v in f.terms.items()}, dom)


def _check_compatible(f: RingElement, g: RingElement) -> str:
    if f.descriptor != g.descriptor:
        raise DescriptorMismatch("ring elements over different groups")
    return _join_domains(f.domain, g.domain)


def add(f: RingElement, g: RingElement) -> RingElement:
    dom = _check_compatible(f, g)
    zero = _coerce(0, dom)
    terms = {k: _coerce(v, dom) for k, v in f.terms.items()}
    for k, v in g.terms.items():
        acc = terms.get(k, zero) + _coerce(v, dom)
        if acc == zero:
            terms.pop(k, None)
        else:
            terms[k] = acc
    return RingElement(f.descriptor, terms, dom)


def convolve(f: RingElement, g: RingElement) -> RingElement:
    """Product in the group ring: (fg)_t = sum over uv = t of f_u g_v."""
    dom = _check_compatible(f, g)
    mul = coordinate_multiplier(f.descriptor)
    zero = _coerce(0, dom)
    raw: dict = {}
    for gf, cf in f.terms.items():
        cf = _coerce(cf, dom)
        for gg, cg in g.terms.items():
            key = mul(gf.coords, gg.coords)
            raw[key] = raw.get(key, zero) + cf * _coerce(cg, dom)
    desc = f.descriptor
    terms = {
        GroupElement(desc, c): v for c, v in raw.items() if v != zero
    }
    return RingElement(desc, terms, dom)


def adjoint(f: RingElement) -> RingElement:
    """Coefficient at g becomes the conjugate of the coefficient at g^-1."""
    terms = {}
    for g, v in f.terms.items():
        if f.domain == COMPLEX:
            v = v.conjugate()
        terms[groups.inverse(g)] = v
    return RingElement(f.descriptor, terms, f.domain)


def l1_norm_and_kernel(f: RingElement):
    """Return (l1 norm, K_f) where K_f = supp(f) union supp(f*) union {e}."""
    norm = sum(abs(v) for v in f.terms.values())
    kernel = set(f.terms)
    kernel.update(groups.inverse(g) for g in f.terms)
    kernel.add(groups.identity(f.descriptor))
    return norm, frozenset(kernel)


def l1_norm(f: RingElement):
    return l1_norm_and_kernel(f)[0]


def trace_identity(f: RingElement):
    """The canonical trace: the coefficient at the identity element."""
    return f.coefficient(groups.identity(f.descriptor))


def power(f: RingElement, k: int) -> RingElement:
    k = groups._as_int(k, "exponent")
    if k < 0:
        raise DomainError("exponent must be a nonnegative integer")
    acc = identity_element(f.descriptor, f.domain)
    for _ in range(k):
        acc = convolve(acc, f)
    return acc


def is_self_adjoint(f: RingElement) -> bool:
    return f == adjoint(f)


# ---------------------------------------------------------------------------
# .gre text format
#
#   group <descriptor>
#   # comment
#   <coefficient> <c1> <c2> ... <ck>
#
# Coefficients are integers or p/q rationals; coordinates are integers, or
# words like "a b^-1" for the free group (the identity word is empty).

def _format_coefficient(v) -> str:
    # rationals keep the p/q spelling even when integral, so the scalar
    # domain survives the round trip
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _parse_coefficient(tok: str, lineno: int):
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num), int(den))
        return int(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"line {lineno}: bad coefficient {tok!r}") from exc


def serialize_gre(f: RingElement) -> str:
    """Serialize to .gre text. Exact scalar domains only."""
    if f.domain == COMPLEX:
        raise DomainError("the .gre format carries exact coefficients only")
    lines = [f"group {descriptor_string(f.descriptor)}"]
    for g, v in f.sorted_terms():
        toks = groups.element_tokens(g)
        lines.append(" ".join([_format_coefficient(v)] + toks))
    return "\n".join(lines) + "\n"


def parse_gre(text: str) -> RingElement:
    """Parse .gre text; errors carry the offending line number."""
    desc = None
    staged: dict = {}
    domain = INT
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if desc is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "group":
                raise FormatError(f"line {lineno}: expected 'group <descriptor>'")
            try:
                desc = groups.parse_descriptor(parts[1])
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            continue
        toks = line.split()
        coeff = _parse_coefficient(toks[0], lineno)
        if isinstance(coeff, Fraction):
            domain = RATIONAL
        try:
            g = groups.element_from_tokens(desc, toks[1:])
        except (FormatError, DomainError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        staged[g] = staged.get(g, 0) + coeff
    if desc is None:
        raise FormatError("line 1: missing 'group <descriptor>' header")
    return ring_element(desc, staged, domain)
