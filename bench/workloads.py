"""Seeded inputs and cross-route checks for the three benchmark workloads.

A check is one symbol or instance cross-validated by all its routes.  Each
check asserts the relations between its routes through ``Gates``; a gate
that fails, or a route that raises, fails the check.  The seed varies the
coefficients, signs and generators of the inputs but not the shape of their
supports or the window schedules, so every seed asks for about the same work.
The finite symbols are fixed templates that the seed moves by a group
automorphism and a sign, which leaves their work unchanged.

  lattice     Z^1 and Z^2 symbols: torus quadrature, window compressions and
              both factorization backends (float-heavy, commutative).
  heisenberg  H3 symbols: sparse LU fill and the exact convolution kernel
              inside fk_poly_trace (non-abelian, no closed form).
  finite      finite abelian groups and small lattice windows: SNF, dual
              enumeration, extremal counts, tiling (exact arithmetic, no
              group-ring convolution, no factorization).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import grdet as G
import grdet.cli

Z1 = G.integer_lattice(1)
Z2 = G.integer_lattice(2)
H3 = G.heisenberg3()

WORKLOADS = ("lattice", "heisenberg", "finite")


class Gates:
    """The relations one check asserts and the values its routes produced."""

    def __init__(self):
        self.values: dict = {}
        self.ratios: list[float] = []
        self.failures: list[str] = []

    def record(self, name: str, value):
        self.values[name] = value
        return value

    def close(self, name: str, a: float, b: float, tol: float) -> None:
        """|a - b| <= tol; the ratio |a - b| / tol enters worst_gap_ratio."""
        ratio = abs(a - b) / tol
        self.ratios.append(ratio)
        if not ratio <= 1.0:
            self.failures.append(f"{name}: |{a!r} - {b!r}| exceeds {tol:.3g}")

    def equal(self, name: str, a, b) -> None:
        if a != b:
            self.failures.append(f"{name}: {a!r} != {b!r}")

    def holds(self, name: str, condition: bool, detail: str = "") -> None:
        if not condition:
            self.failures.append(f"{name}: violated {detail}".rstrip())


@dataclass(frozen=True)
class Check:
    id: str
    kind: str                     # "sa", "nsa", "cplx" or "exact"
    run: Callable[[Gates], None]


@dataclass
class CheckResult:
    id: str
    seconds: float
    values: dict
    worst_ratio: float
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_check(check: Check, clock) -> CheckResult:
    gates = Gates()
    start = clock()
    try:
        check.run(gates)
    except Exception as exc:  # a raising route fails its check, the pass goes on
        gates.failures.append(f"raised {type(exc).__name__}: {exc}")
    seconds = clock() - start
    worst = max(gates.ratios, default=0.0)
    return CheckResult(check.id, seconds, gates.values, worst, gates.failures)


def build(workload: str, seed: int, scratch: Path) -> list[Check]:
    """The checks of one workload; ``scratch`` receives input files."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lattice":
        return _lattice(rng, scratch)
    if workload == "heisenberg":
        return _heisenberg(rng)
    if workload == "finite":
        return _finite(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# symbol templates (fixed supports, seeded coefficients)

def _sign(rng) -> int:
    return rng.choice((1, -1))


def _dominant(rng, desc, rest: dict, margin=(1, 2), domain=None):
    """c e + rest with |c| = |rest|_1 + margin: l1-dominant, so invertible."""
    r = G.ring_element(desc, rest, domain)
    c = int(math.ceil(float(G.l1_norm(r)))) + rng.randint(*margin)
    return G.add(G.ring_element(desc, {G.identity(desc).coords: c}, r.domain), r)


def _z1_sa(rng):
    a1, a2 = _sign(rng) * rng.randint(1, 2), _sign(rng)
    return _dominant(rng, Z1, {(1,): a1, (-1,): a1, (2,): a2, (-2,): a2})


def _z1_nsa(rng):
    f = _dominant(rng, Z1, {(e,): _sign(rng) * rng.randint(1, 2) for e in (1, -1, 2, -3)})
    return G.scale(f, _sign(rng))


def _gaussian_half(rng) -> complex:
    while True:
        z = complex(rng.randint(-2, 2), rng.randint(-2, 2)) / 2
        if z:
            return z


def _z1_cplx(rng):
    return _dominant(rng, Z1, {(e,): _gaussian_half(rng) for e in (1, -1, 2)}, domain="complex")


# The Z^2 and H3 symbols feed the costly exact power walks, so only their
# signs are seeded: coefficient sizes, and with them the cost, stay fixed.

def _z2_sa(rng):
    a, b, e = _sign(rng), _sign(rng), _sign(rng)
    return _dominant(rng, Z2, {(1, 0): a, (-1, 0): a, (0, 1): b, (0, -1): b,
                               (1, 1): e, (-1, -1): e}, margin=(1, 1))


def _z2_nsa(rng):
    f = _dominant(rng, Z2, {g: _sign(rng) for g in ((1, 0), (0, -1), (-1, 1), (1, 1))},
                  margin=(1, 1))
    return G.scale(f, _sign(rng))


def _h3_sa(rng):
    # 5 + a (x + x^-1) + b (y + y^-1): spectrum in [1, 9], as in c11
    a, b = _sign(rng), _sign(rng)
    return G.ring_element(H3, {(0, 0, 0): 5, (1, 0, 0): a, (-1, 0, 0): a,
                               (0, 1, 0): b, (0, -1, 0): b})


def _h3_nsa(rng):
    # +-5 + a (x - x^-1) + b (y - y^-1)
    a, b = _sign(rng), _sign(rng)
    return G.ring_element(H3, {(0, 0, 0): 5 * _sign(rng), (1, 0, 0): a, (-1, 0, 0): -a,
                               (0, 1, 0): b, (0, -1, 0): -b})


def _h3_cplx(rng):
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    return _dominant(rng, H3, {g: _gaussian_half(rng) for g in gens},
                     margin=(1, 1), domain="complex")


CERT_METHOD = {"sa": "positive-gap", "nsa": "l1-neumann", "cplx": "l1-neumann",
               "shift": "torus-min"}


def _log_spread(cert, f) -> float:
    """log(b / a) for the enclosure [a, b] = [sigma_lower^2, |f|_1^2] of f*f."""
    return 2.0 * math.log(float(G.l1_norm(f)) / cert.sigma_lower)


# ---------------------------------------------------------------------------
# lattice

Z1_STAGES = (150, 400, 1500, 4000)   # 301 unknowns (dense) up to 8001 (SuperLU)
Z2_STAGES = (10, 16, 30)             # 441 (dense), 1089, 3721 (SuperLU)
Z1_GRID = 256
Z2_GRID = 48
LATTICE_DEGREE = 40
PERTURB_FRACTION = 0.02
GRID_CIRCULANT_TOL = 1e-9            # the c03 identity
QUADRATURE_TOL = 1e-9                # grid vs roots for a nonvanishing symbol


def _lattice_check(f, kind: str, stages, grid_n: int, perturb_seed: int):
    shift = kind == "shift"
    d = f.descriptor.params[0]
    integer_d1 = d == 1 and f.domain == "int"

    def run(g: Gates):
        cert = G.certify_invertible(f, CERT_METHOD[kind])
        g.holds("certified", cert.certified, cert.reason or "")
        windows = [G.folner_window(f.descriptor, n) for n in stages]
        table = G.fk_finite_sections(f, windows, certificate=cert)
        sections = g.record("sections", table.values())
        sigma = g.record("sigma_min", G.sigma_min_estimate(G.compress(f, windows[1])))
        grid = g.record("grid", G.mahler_grid(f, grid_n))
        circ = g.record("circulant", G.circulant_logdet(f, grid_n))
        g.close("grid = circulant", grid, circ,
                GRID_CIRCULANT_TOL * max(1.0, abs(grid), abs(circ)))
        ref = grid
        if integer_d1:
            ref = g.record("roots", G.mahler_roots(f))
            g.close("grid = roots", grid, ref, QUADRATURE_TOL)
        interval = G.poly_trace_interval(cert, f)
        poly, bound = G.fk_poly_trace(f, interval, LATTICE_DEGREE)
        g.record("poly", [poly, bound])
        g.close("poly = reference", poly, ref, bound + 1e-9)
        perturbed = None
        if d == 1:
            study = G.perturbation_study(f, windows[1:3], PERTURB_FRACTION,
                                         seed=perturb_seed, certificate=cert)
            perturbed = g.record("perturbed", study.values())
        if shift:
            # plain sections of u are singular: defect rows, never a value
            g.holds("sections are -inf defects", all(v == -math.inf for v in sections))
            g.equal("sigma_min of a shift section", sigma, 0.0)
            # unit columns leave a partial permutation matrix: |det| is 0 or 1
            g.holds("perturbed |det| in {0, 1}", all(v in (-math.inf, 0.0) for v in perturbed))
            return
        spread = _log_spread(cert, f)
        g.holds("sections finite", all(math.isfinite(v) for v in sections))
        # heuristic tolerance: the boundary fraction of the window times
        # log(b/a), the log-range of the spectrum of f*f
        last = table.rows[-1]
        g.close("sections -> reference", sections[-1], ref,
                float(last.boundary_ratio) * spread)
        # compressions keep the certified lower bound on sigma_min
        g.holds("sigma_min >= certified bound", sigma >= cert.sigma_lower,
                f"{sigma} < {cert.sigma_lower}")
        if perturbed is not None:
            for i, (p, s) in enumerate(zip(perturbed, sections[1:3])):
                g.close(f"perturbed[{i}] = sections", p, s, PERTURB_FRACTION * spread)

    return run


def _cli(argv: list[str]) -> list[list[str]]:
    """Run the grdet CLI in-process; return its CSV rows (header dropped)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = grdet.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"grdet {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return [line.split(",") for line in out.getvalue().splitlines()[1:]]


def _cli_check(f, kind: str, path: Path):
    path.write_text(G.serialize_gre(f), encoding="utf-8")
    method = CERT_METHOD[kind]
    stages = ",".join(str(n) for n in Z1_STAGES[1:3])
    printed = 1e-11   # 12 significant digits on stdout

    def run(g: Gates):
        roots = float(_cli(["mahler", "--method", "roots", "--f", str(path)])[0][1])
        rows = _cli(["fkdet", "--method", "sections", "--f", str(path),
                     "--schedule", stages, "--certify", method])
        (poly_row,) = _cli(["fkdet", "--method", "poly", "--f", str(path),
                            "--degree", str(LATTICE_DEGREE), "--certify", method])
        g.record("cli", [roots, rows, poly_row])
        cert = G.certify_invertible(f, method)
        spread = _log_spread(cert, f)
        n, size, ratio, value, _ = rows[-1]
        g.equal("window size", int(size), 2 * int(n) + 1)
        g.close("cli sections -> cli roots", float(value), roots,
                float(ratio) * spread + printed)
        poly, bound = float(poly_row[4]), float(poly_row[5])
        g.close("cli poly = cli roots", poly, roots, bound + 1e-9 + printed)

    return run


def _lattice(rng, scratch: Path) -> list[Check]:
    symbols = [
        ("z1-sa", "sa", _z1_sa(rng)),
        ("z1-nsa", "nsa", _z1_nsa(rng)),
        ("z1-cplx", "cplx", _z1_cplx(rng)),
        ("z1-shift", "shift", G.ring_element(Z1, {(1,): 1})),
        ("z2-sa", "sa", _z2_sa(rng)),
        ("z2-nsa", "nsa", _z2_nsa(rng)),
    ]
    checks = []
    for name, kind, f in symbols:
        d1 = f.descriptor == Z1
        run = _lattice_check(f, kind, Z1_STAGES if d1 else Z2_STAGES,
                             Z1_GRID if d1 else Z2_GRID, rng.randrange(2 ** 31))
        checks.append(Check(f"lattice/{name}", "nsa" if kind == "shift" else kind, run))
    scratch.mkdir(parents=True, exist_ok=True)
    for name, kind, f in (("cli-z1-sa", "sa", _z1_sa(rng)), ("cli-z1-nsa", "nsa", _z1_nsa(rng))):
        checks.append(Check(f"lattice/{name}", kind, _cli_check(f, kind, scratch / f"{name}.gre")))
    return checks


# ---------------------------------------------------------------------------
# heisenberg

H3_STAGES = (3, 4, 5)                         # 931 .. 6171 unknowns
H3_DEGREE = {"sa": 20, "nsa": 18, "cplx": 8}  # exact walk, f*f pairing, float recurrence
H3_SECTION_TOL = 5e-2                         # the c11 tolerance


def _heisenberg_check(f, kind: str):
    def run(g: Gates):
        cert = G.certify_invertible(f, CERT_METHOD[kind])
        g.holds("certified", cert.certified, cert.reason or "")
        windows = [G.folner_window(H3, n) for n in H3_STAGES]
        sections = g.record("sections",
                            G.fk_finite_sections(f, windows, certificate=cert).values())
        poly, bound = G.fk_poly_trace(f, G.poly_trace_interval(cert, f), H3_DEGREE[kind])
        g.record("poly", [poly, bound])
        for i, v in enumerate(sections):
            g.close(f"sections[{i}] = poly", v, poly, H3_SECTION_TOL + bound)
            for j in range(i):
                g.close(f"sections[{i}] = sections[{j}]", v, sections[j], H3_SECTION_TOL)

    return run


def _heisenberg(rng) -> list[Check]:
    symbols = (("sa", _h3_sa(rng)), ("nsa", _h3_nsa(rng)), ("cplx", _h3_cplx(rng)))
    return [Check(f"heisenberg/{kind}", kind, _heisenberg_check(f, kind)) for kind, f in symbols]


# ---------------------------------------------------------------------------
# finite

CHAIN_MODULI = (                            # group orders 2 .. 12
    [2], [3], [4], [5], [6], [7], [8], [2, 2], [9], [10], [2, 4], [3, 3],
    [12], [2, 6], [2, 2, 2],
)
CHAIN_COUNT = 30                            # each group twice
CHAIN_ORDER_LIMIT = 300
SNF_MODULI = (8, 10, 12)                    # (Z/m)^2: 64 .. 144 unknowns
EXTREMAL_MODULI = (4, 5, 6, 7)              # f = 2e + g: duals of 15 .. 129 points
PRIMES = (67_108_859, 67_108_837, 67_108_819)   # below 2^26: int64 products stay exact
# The finite symbols are drawn once from this fixed stream; the seed then
# moves each one by an automorphism of its group and a sign (_seeded_image).
TEMPLATE_STREAM = "finite:templates"


def _seeded_image(rng, f):
    """f under a seeded automorphism of its finite group, times a seeded sign.

    The automorphism multiplies each cyclic coordinate by a unit.  It permutes
    the group, so every compression keeps its |det| and the dual keeps its
    size: the seed changes the instance but not the work it asks for.
    """
    moduli = f.descriptor.params
    units = [rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1]) if m > 2 else 1
             for m in moduli]
    moved = {tuple(u * c % m for u, c, m in zip(units, g.coords, moduli)): v
             for g, v in f.terms.items()}
    return G.scale(G.ring_element(f.descriptor, moved, f.domain), _sign(rng))


def _chain_template(rng, moduli):
    """c e + r over a product of cyclics, |c| > |r|_1 <= 3 (the c01 draw)."""
    desc = G.cyclic_product(moduli)
    while True:
        terms: dict = {}
        for _ in range(rng.randint(0, 3)):
            g = tuple(rng.randrange(m) for m in desc.params)
            if any(g):
                terms[g] = terms.get(g, 0) + _sign(rng)
        r = G.ring_element(desc, terms)
        norm = int(G.l1_norm(r))
        c = _sign(rng) * (norm + rng.randint(1, 3))
        f = G.add(G.ring_element(desc, {G.identity(desc).coords: c}), r)
        M = G.compress(f, G.folner_window(desc, 1)).to_int_rows()
        if abs(G.det_exact(M)) <= CHAIN_ORDER_LIMIT:
            return desc, f


def _chain_check(desc, f):
    def run(g: Gates):
        window = G.folner_window(desc, 1)
        M = G.compress(f, window).to_int_rows()
        order = G.quotient_order(G.snf(M, transforms=False))
        adet = abs(G.det_exact(M))
        dual = G.solve_dual_finite(f, desc, materialize_limit=0)
        est = G.entropy_finite_group(f, desc, enumeration_limit=100_000)
        g.record("chain", [order, adet, dual.count, est.value])
        g.equal("|X_f| = |Z^G / M Z^G|", dual.count, order)
        g.equal("|det M| = quotient order", adet, order)
        g.equal("entropy order", est.quotient_order, order)
        g.equal("entropy dual count", est.solution_count, order)
        g.equal("entropy value", est.value, math.log(order) / desc.order())

    return run


def _mod_matrix(rows, p: int) -> np.ndarray:
    return np.array([[x % p for x in row] for row in rows], dtype=np.int64)


def _snf_check(f):
    def run(g: Gates):
        desc = f.descriptor
        M = G.compress(f, G.folner_window(desc, 1)).to_int_rows()
        res = G.snf(M, transforms=True)
        d = res.divisors
        g.record("divisors", [str(x) for x in d])
        g.equal("prod(divisors) = |det M|", G.quotient_order(res), abs(G.det_exact(M)))
        g.holds("divisor chain", all(b % a == 0 for a, b in zip(d, d[1:])))
        n = len(M)
        for p in PRIMES:
            U, V, W = (_mod_matrix(x, p) for x in (res.u, res.v, res.v_inverse))
            D = np.array([x % p for x in d], dtype=np.int64)
            UDV = ((U * D) % p) @ V % p
            g.holds(f"U D V = M mod {p}", np.array_equal(UDV, _mod_matrix(M, p)))
            g.holds(f"V V^-1 = I mod {p}",
                    np.array_equal(V @ W % p, np.eye(n, dtype=np.int64)))

    return run


# (p, threshold, mode) of each extremal count, and whether the count is |X|
# (a threshold below every distance) or 1 (a threshold of 1/2).
EXTREMAL_COUNTS = {
    "inf separated": (math.inf, "tiny_inf", "separated"),
    "inf spanning": (math.inf, "tiny_inf", "spanning"),
    "l1 separated": (1, "tiny", "separated"),
    "l2 spanning": (2, "tiny", "spanning"),
    "l1 spanning at 1/2": (1, "half", "spanning"),
    "l2 separated at 1/2": (2, "half", "separated"),
}
# one count costs about as much as all six on the next smaller dual
EXTREMAL_LARGEST = ("l1 separated", "l2 separated at 1/2")


def _extremal_check(n: int, f, keys):
    desc = f.descriptor
    L = int(G.l1_norm(f))
    # distinct solutions are >= 1/|f|_1 apart in the sup metric, so at
    # 1/(8|f|_1) every point is separated and spans only itself; the
    # normalized l1 and l2 distances are then >= 1/(|f|_1 |G|)
    thresholds = {"tiny_inf": Fraction(1, 8 * L), "tiny": Fraction(1, 8 * L * n),
                  "half": Fraction(1, 2)}   # no circle distance exceeds 1/2

    def run(g: Gates):
        dual = G.solve_dual_finite(f, desc)
        m = dual.count
        got = {}
        for key in keys:
            p, threshold, mode = EXTREMAL_COUNTS[key]
            got[key] = G.extremal_count(dual, dual.window, p, thresholds[threshold], mode)
        g.record("counts", [m] + list(got.values()))
        for key, value in got.items():
            g.equal(key, value, 1 if EXTREMAL_COUNTS[key][1] == "half" else m)

    return run


def _tiling_check(desc, n: int, k: int):
    def run(g: Gates):
        F = G.folner_window(desc, n)
        tile = G.folner_window(desc, k)
        exact = G.quasitile(F, [tile], 0.1)
        G.verify_tiling(exact)
        # the tile side divides the window side, so the greedy scan is exact
        g.equal("coverage", exact.coverage, 1)
        mixed = G.quasitile(F, [tile, G.folner_window(desc, 1)], 0.2, mode="epsilon-disjoint")
        G.verify_tiling(mixed)
        g.record("coverage", [str(exact.coverage), str(mixed.coverage), len(mixed.placements)])

    return run


def _perturbed_check(f, n: int, k: int):
    def run(g: Gates):
        pc = G.build_perturbed_compression(f, G.folner_window(Z1, n), [G.folner_window(Z1, k)], 0.8)
        g.record("perturbed", [pc.rank_defect, pc.denominator,
                               [(t.norm, t.inverse_norm) for t in pc.transfers]])
        g.holds("transfers placed", bool(pc.transfers))
        for t in pc.transfers:
            g.holds(f"tile {t.tile_index} norm <= 2", t.norm <= 2.0, str(t.norm))
            g.holds(f"tile {t.tile_index} inverse norm <= 2", t.inverse_norm <= 2.0,
                    str(t.inverse_norm))
        g.holds("denominator clears the matrix",
                all((x * pc.denominator).denominator == 1 for row in pc.matrix for x in row))

    return run


def _ball_check(k: int, R: Fraction):
    def run(g: Gates):
        count = G.count_lattice_ball(k, R)
        r = math.floor(R)
        axis = np.arange(-r, r + 1, dtype=np.int64) ** 2
        sq = axis
        for _ in range(k - 1):
            sq = np.add.outer(sq, axis)
        g.record("count", count)
        g.equal("brute-force count", count, int(np.count_nonzero(sq * R.denominator ** 2
                                                                <= R.numerator ** 2)))
        unit = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
        g.holds("count <= vol B(R + sqrt k)", count <= unit * (float(R) + math.sqrt(k)) ** k)
        if R > math.sqrt(k):
            g.holds("count >= vol B(R - sqrt k)", count >= unit * (float(R) - math.sqrt(k)) ** k)

    return run


def _finite(rng) -> list[Check]:
    templates = random.Random(TEMPLATE_STREAM)
    checks = []
    for i in range(CHAIN_COUNT):
        desc, f = _chain_template(templates, CHAIN_MODULI[i % len(CHAIN_MODULI)])
        checks.append(Check(f"finite/chain-{i}", "exact", _chain_check(desc, _seeded_image(rng, f))))
    for m in SNF_MODULI:
        desc = G.cyclic_product([m, m])
        rest = {(1, 0): _sign(templates), (m - 1, 0): _sign(templates), (0, 1): _sign(templates),
                (0, m - 1): _sign(templates), (1, 1): _sign(templates)}
        f = _dominant(templates, desc, rest, margin=(1, 1))
        # the elimination order follows the matrix layout, so an automorphism
        # would change the work: only the sign is seeded
        checks.append(Check(f"finite/snf-{m}x{m}", "exact", _snf_check(G.scale(f, _sign(rng)))))
    for n in EXTREMAL_MODULI:
        f = G.ring_element(G.cyclic_product([n]), {(0,): 2, (1,): 1})
        keys = EXTREMAL_LARGEST if n == EXTREMAL_MODULI[-1] else tuple(EXTREMAL_COUNTS)
        checks.append(Check(f"finite/extremal-{n}", "exact",
                            _extremal_check(n, _seeded_image(rng, f), keys)))
    # window side (2k+1) q: the tile side divides it
    for name, desc, k, q in (("z1", Z1, 3, 25), ("z2", Z2, 3, 5)):
        n = ((2 * k + 1) * q - 1) // 2
        checks.append(Check(f"finite/tiling-{name}", "exact", _tiling_check(desc, n, k)))
    for i in range(2):
        f = _dominant(rng, Z1, {(1,): _sign(rng), (-1,): _sign(rng)}, margin=(1, 1))
        checks.append(Check(f"finite/perturbed-{i}", "exact", _perturbed_check(f, 50, 5)))
    for k, r in ((2, 27), (3, 12), (4, 7)):
        R = Fraction(4 * r + rng.randrange(4), 4)    # the seed moves R inside [r, r + 1)
        checks.append(Check(f"finite/ball-{k}", "exact", _ball_check(k, R)))
    return checks
