"""Mahler measures of lattice group-ring elements.

Three routes, which agree where their hypotheses overlap:

  * mahler_roots     -- d = 1 only; log|leading coeff| + sum of log+ of the
                        root magnitudes (companion-matrix eigenvalues);
  * mahler_grid      -- torus quadrature of log|symbol| on the N-th roots
                        of unity, any d; the symbol values come from
                        sections._torus_values, the evaluator the torus-min
                        certificate uses;
  * circulant_logdet -- normalized log-determinant of the symbol acting on
                        the group ring of (Z/N)^d; its eigenvalues are
                        exactly the symbol values on the same grid.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DomainError
from . import groups, ring
from .det import _canonical_adjoint_rep, logabsdet
from .ring import RingElement
from .sections import _torus_values, compress

ZERO_SYMBOL_FLOOR = 1e-14


def mahler_roots(f: RingElement) -> float:
    """Log Mahler measure for d = 1 from polynomial roots.

    f = u^k * sum c_j u^j with c_0 c_n != 0; the roots of sum c_j u^j come
    from the companion-matrix eigenvalue solver (with balancing) behind
    numpy.roots, accurate to ~1e-10 absolute through degree 50.  Complex
    symbols keep complex coefficients.
    """
    if f.descriptor.family != groups.LATTICE:
        raise DomainError("mahler_roots needs an integer-lattice element")
    if f.descriptor.params[0] != 1:
        raise DomainError("mahler_roots needs d = 1")
    if not f:
        raise DomainError("mahler_roots rejects the zero element")
    scalar = complex if f.domain == ring.COMPLEX else float
    terms = f.sorted_terms()
    lo = terms[0][0].coords[0]
    cs = [0.0] * (terms[-1][0].coords[0] - lo + 1)
    for g, c in terms:
        cs[g.coords[0] - lo] = scalar(c)
    n = len(cs) - 1
    if n == 0:
        return math.log(abs(cs[0]))
    lam = np.roots(cs[::-1])
    return math.fsum(
        [math.log(abs(cs[-1]))] + [math.log(a) for a in np.abs(lam) if a > 1.0]
    )


def mahler_grid(f: RingElement, N: int) -> float:
    """Mean of log|f| over the N^d grid of N-th roots of unity.

    The symbol is evaluated through the canonical adjoint representative
    (det._canonical_adjoint_rep), so f and its adjoint give bit-identical
    means; the logs are summed with math.fsum.  Grid points where |f| falls
    below 1e-14 are defects: they are excluded from the mean and reported
    through a warning, since quadrature through a torus zero is unreliable
    (the measure itself is still defined).
    """
    if f.descriptor.family != groups.LATTICE:
        raise DomainError("mahler_grid needs an integer-lattice element")
    if not f:
        raise DomainError("mahler_grid rejects the zero element")
    N = groups._as_int(N, "grid size")
    if N < 2:
        raise DomainError("grid size must be an integer >= 2")
    values = np.abs(_torus_values(_canonical_adjoint_rep(f), N)).ravel()
    kept = values[values >= ZERO_SYMBOL_FLOOR]
    if not kept.size:
        raise DomainError("every grid point is a near-zero defect")
    if kept.size < values.size:
        warnings.warn(
            f"mahler_grid: {values.size - kept.size} of {values.size} grid points are near "
            "torus zeros and were excluded; the estimate is unreliable"
        )
    return math.fsum(np.log(kept).tolist()) / kept.size


def circulant_logdet(f: RingElement, N: int) -> float:
    """Normalized log|det| of f acting on the group ring of (Z/N)^d.

    The image of f under exponent reduction mod N is compressed over the
    whole finite group (a d-level circulant) and eliminated by logabsdet;
    a singular image reports -inf.
    """
    if f.descriptor.family != groups.LATTICE:
        raise DomainError("circulant_logdet needs an integer-lattice element")
    N = groups._as_int(N, "modulus")
    if N < 2:
        raise DomainError("modulus must be an integer >= 2")
    d = f.descriptor.params[0]
    # the quotient's coordinates reduce mod N; colliding terms add up
    quot = groups.cyclic_product([N] * d)
    img = ring.ring_element(quot, {g.coords: v for g, v in f.sorted_terms()}, f.domain)
    window = groups.folner_window(quot, 1)
    if not img:
        return -math.inf
    return logabsdet(compress(img, window)) / (N ** d)
