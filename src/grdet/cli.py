"""Command-line driver.

One binary, subcommand style; tables go to standard output as CSV (default)
or JSON, diagnostics to standard error.  Numbers print with 12 significant
digits and identical invocations produce byte-identical output.

Exit codes: 0 success, 2 precondition/format error, 3 not certifiable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from fractions import Fraction

from .errors import DomainError
from . import det, dynamics, groups, mahler, ring, sections

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NOT_CERTIFIABLE = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(columns, rows, fmt: str):
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    else:
        # strict JSON: a non-finite cell is the string of its CSV text
        payload = [{c: _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v
                    for c, v in zip(columns, row)} for row in rows]
        json.dump(payload, sys.stdout, default=_fmt, allow_nan=False)
        print()


def _load_element(args) -> ring.RingElement:
    with open(args.f, "r", encoding="utf-8") as fh:
        f = ring.parse_gre(fh.read())
    if args.group is not None:
        want = groups.parse_descriptor(args.group)
        if want != f.descriptor:
            raise DomainError(
                f"--group {args.group} does not match the file's group "
                f"{groups.descriptor_string(f.descriptor)}"
            )
    return f


def _number(flag: str, text: str, convert=float):
    """text read by convert; malformed or non-finite text raises DomainError."""
    try:
        value = convert(text)
    except (ValueError, ZeroDivisionError):
        value = math.nan
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"malformed {flag} value {text!r}")
    return value


def _schedule(f, spec: str):
    ns = [_number("--schedule", tok, int) for tok in spec.split(",") if tok]
    if not ns or any(n < 1 for n in ns):
        raise DomainError("schedule must be a comma list of positive window stages")
    return [groups.folner_window(f.descriptor, n) for n in ns]


def _auto_certificate(f, grid_n):
    methods = ["positive-gap", "l1-neumann"]
    if f.descriptor.family == groups.LATTICE:
        methods.append("torus-min")
    for m in methods:
        cert = sections.certify_invertible(f, m, grid_n=grid_n)
        if cert.certified:
            return cert
    return cert


def _gate(f, args):
    if getattr(args, "assume_invertible", False):
        return None, True
    cert = (
        sections.certify_invertible(f, args.certify, grid_n=args.grid_n)
        if args.certify
        else _auto_certificate(f, args.grid_n)
    )
    if not cert.certified:
        print(f"not certifiable: {cert.reason}", file=sys.stderr)
        raise SystemExit(EXIT_NOT_CERTIFIABLE)
    return cert, False


def _table_rows(table: det.ConvergenceTable):
    return [
        (r.n, r.window_size, float(r.boundary_ratio), r.value, r.method)
        for r in table.rows
    ]


def _tiling_rows(tiling: dynamics.Tiling):
    return [(ti, " ".join(str(x) for x in c.coords)) for ti, c in tiling.placements]


def cmd_mahler(args) -> int:
    f = _load_element(args)
    if args.method == "roots":
        value = mahler.mahler_roots(f)
        _emit(["method", "value"], [("roots", value)], args.format)
    else:
        value = mahler.mahler_grid(f, args.grid_n)
        _emit(["method", "grid_n", "value"], [("grid", args.grid_n, value)], args.format)
    return EXIT_OK


def cmd_fkdet(args) -> int:
    f = _load_element(args)
    cert, assume = _gate(f, args)
    if args.method == "sections":
        table = det.fk_finite_sections(
            f, _schedule(f, args.schedule), certificate=cert, assume_invertible=assume
        )
        _emit(
            ["n", "window_size", "boundary_ratio", "value", "method"],
            _table_rows(table),
            args.format,
        )
    else:
        if args.interval:
            toks = args.interval.split(",")
            if len(toks) != 2:
                raise DomainError(f"malformed --interval value {args.interval!r}: need a,b")
            a, b = (_number("--interval", tok) for tok in toks)
        else:
            if cert is None:
                raise DomainError("--method poly needs --interval or a certificate")
            a, b = det.poly_trace_interval(cert, f)
        value, bound = det.fk_poly_trace(f, (a, b), args.degree)
        _emit(
            ["method", "interval_low", "interval_high", "degree", "value", "error_bound"],
            [("poly", a, b, args.degree, value, bound)],
            args.format,
        )
    return EXIT_OK


def cmd_snf(args) -> int:
    rows = []
    with open(args.matrix, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([int(tok) for tok in line.replace(",", " ").split()])
            except ValueError as exc:
                raise DomainError(f"matrix line {lineno}: {exc}") from exc
    res = det.snf(rows, transforms=False)
    order = det.quotient_order(res)
    _emit(
        ["divisors", "order"],
        [(" ".join(str(d) for d in res.divisors), "inf" if order is math.inf else order)],
        args.format,
    )
    return EXIT_OK


def cmd_entropy_finite(args) -> int:
    f = _load_element(args)
    est = dynamics.entropy_finite_group(f, f.descriptor)
    if args.solutions_csv:
        dual = dynamics.solve_dual_finite(f, f.descriptor)
        with open(args.solutions_csv, "w", encoding="utf-8") as fh:
            fh.write(dual.to_csv())
    _emit(
        ["group_order", "quotient_order", "abs_det", "solution_count", "entropy"],
        [(
            est.group_order,
            est.quotient_order,
            est.abs_det,
            est.solution_count if est.dual_enumerated else "skipped",
            est.value,
        )],
        args.format,
    )
    return EXIT_OK


def cmd_separated(args) -> int:
    f = _load_element(args)
    dual = dynamics.solve_dual_finite(f, f.descriptor)
    window = dual.window
    p = math.inf if args.p == "inf" else int(args.p)
    if args.epsilon is None:
        eps = Fraction(1, 8 * int(ring.l1_norm(f)))  # default threshold 1/(8 |f|_1)
        eps_str = str(eps)
    else:
        eps_str = args.epsilon
        eps = _number("--epsilon", args.epsilon, lambda t: Fraction(t) if "/" in t else float(t))
    if args.mode == "separated":
        count, greedy = dynamics.separated_count_with_greedy(dual, window, p, eps)
        rows = [(args.mode, args.p, eps_str, dual.count, count, greedy)]
        cols = ["mode", "p", "epsilon", "solutions", "count", "greedy_lower_bound"]
    else:
        count = dynamics.extremal_count(dual, window, p, eps, "spanning")
        rows = [(args.mode, args.p, eps_str, dual.count, count)]
        cols = ["mode", "p", "epsilon", "solutions", "count"]
    if args.solutions_csv:
        with open(args.solutions_csv, "w", encoding="utf-8") as fh:
            fh.write(dual.to_csv())
    _emit(cols, rows, args.format)
    return EXIT_OK


def cmd_quasitile(args) -> int:
    desc = groups.parse_descriptor(args.group)
    F = groups.folner_window(desc, args.n)
    tiles = [groups.folner_window(desc, _number("--tiles", tok, int)) for tok in args.tiles.split(",")]
    tiling = dynamics.quasitile(F, tiles, args.epsilon, mode=args.mode)
    dynamics.verify_tiling(tiling)
    print(f"coverage {float(tiling.coverage):.12g}", file=sys.stderr)
    _emit(["tile_index", "center_coordinates"], _tiling_rows(tiling), args.format)
    return EXIT_OK


def cmd_perturb(args) -> int:
    f = _load_element(args)
    cert, assume = _gate(f, args)
    table = det.perturbation_study(
        f,
        _schedule(f, args.schedule),
        args.delta,
        seed=args.seed,
        certificate=cert,
        assume_invertible=assume,
    )
    _emit(
        ["n", "window_size", "boundary_ratio", "value", "method"],
        _table_rows(table),
        args.format,
    )
    return EXIT_OK


def cmd_l1growth(args) -> int:
    # (e + a - a^2) b = b + ab - a^2 b as reduced words
    if args.k < 0:
        raise DomainError("--k must be a nonnegative integer")
    desc = groups.free_group_rank2()
    base = ring.ring_element(desc, {(2,): 1, (1, 2): 1, (1, 1, 2): -1})
    rows = []
    p = ring.identity_element(desc)
    for k in range(args.k + 1):
        if k:
            p = ring.convolve(p, base)
        norm, _ = ring.l1_norm_and_kernel(p)
        rows.append((k, int(norm), len(p)))
    _emit(["k", "l1_norm", "support_size"], rows, args.format)
    return EXIT_OK


def cmd_certify(args) -> int:
    f = _load_element(args)
    cert = sections.certify_invertible(f, args.method, grid_n=args.grid_n)
    _emit(
        ["method", "certified", "sigma_min_lower", "inverse_norm_upper", "reason"],
        [(
            cert.method,
            int(cert.certified),
            cert.sigma_lower,
            cert.inverse_norm_upper if cert.inverse_norm_upper is not None else "",
            cert.reason or "",
        )],
        args.format,
    )
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIABLE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="grdet", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, element=True, seed=False):
        if element:
            p.add_argument("--f", required=True, help="path to a .gre ring-element file")
            p.add_argument("--group", help="expected group descriptor (cross-check)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    def gate_flags(p):
        p.add_argument("--assume-invertible", action="store_true")
        p.add_argument("--certify", choices=["torus-min", "l1-neumann", "positive-gap"])
        p.add_argument("--grid-n", dest="grid_n", type=int, default=256)

    p = sub.add_parser("mahler", help="Mahler measure by roots or torus grid")
    common(p)
    p.add_argument("--method", choices=["roots", "grid"], required=True)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=64)
    p.set_defaults(func=cmd_mahler)

    p = sub.add_parser("fkdet", help="Fuglede-Kadison determinant approximations")
    common(p)
    gate_flags(p)
    p.add_argument("--method", choices=["sections", "poly"], required=True)
    p.add_argument("--schedule", default="2,4,8", help="comma list of window stages")
    p.add_argument("--interval", help="a,b spectral enclosure for f*f (poly)")
    p.add_argument("--degree", type=int, default=40)
    p.set_defaults(func=cmd_fkdet)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("--matrix", required=True, help="path to CSV/whitespace integer rows")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("entropy-finite", help="entropy chain on a finite group")
    common(p)
    p.add_argument("--solutions-csv", help="also dump the dual solutions to this path")
    p.set_defaults(func=cmd_entropy_finite)

    p = sub.add_parser("separated", help="separated/spanning counts on a finite dual")
    common(p)
    p.add_argument("--epsilon", help="threshold (float or p/q); default 1/(8 |f|_1)")
    p.add_argument("--p", choices=["1", "2", "inf"], default="inf")
    p.add_argument("--mode", choices=["separated", "spanning"], default="separated")
    p.add_argument("--solutions-csv", help="also dump the dual solutions to this path")
    p.set_defaults(func=cmd_separated)

    p = sub.add_parser("quasitile", help="greedy quasitiling of a standard window")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True, help="window stage")
    p.add_argument("--tiles", required=True, help="comma list of tile stages")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--mode", choices=["pairwise-disjoint", "epsilon-disjoint"],
                   default="pairwise-disjoint")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_quasitile)

    p = sub.add_parser("perturb", help="random unit-column perturbation study")
    common(p, seed=True)
    gate_flags(p)
    p.add_argument("--schedule", default="2,4,8")
    p.add_argument("--delta", type=float, required=True, help="rank fraction in [0, 0.1]")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("l1growth", help="l1 norms of powers of (e + a - a^2) b in F2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_l1growth)

    p = sub.add_parser("certify", help="invertibility certificates")
    common(p)
    p.add_argument("--method", choices=["torus-min", "l1-neumann", "positive-gap"],
                   required=True)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=256)
    p.set_defaults(func=cmd_certify)

    return ap


def _warning_line(message, *_):
    print(message, file=sys.stderr)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    with warnings.catch_warnings():
        # a library warning is one stderr line, its message, when it is raised
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = _warning_line
        try:
            return args.func(args)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_PRECONDITION
        except (DomainError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
