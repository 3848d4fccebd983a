"""Outside-in tracing of grdet's public layer functions.

``Tracer.install()`` replaces every function listed in ``LAYERS`` in every
loaded ``grdet`` module namespace that binds it, so calls through imported
aliases (``det.compress``, ``mahler.logabsdet``, the package re-exports) are
seen as well as calls inside the defining module.  Spans are kept in memory
as (name, start, end, parent, check, ok, work) and written out by the caller;
``layer_metrics`` derives per-layer counts and self times from one pass.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import statistics
import sys
import time
from typing import NamedTuple


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _matrix_order(M) -> int:
    return M.n if hasattr(M, "n") else M.shape[0]


def _point_count(S) -> int:
    return S.count if hasattr(S, "count") else len(S)


# (module, function, work counter).  A work counter maps the call's
# (args, kwargs, result) to {metric name: amount of work}.
LAYERS = (
    ("groups", "folner_window", lambda a, k, r: {"groups.window_elements": len(r)}),
    ("groups", "boundary_ratio", None),
    ("ring", "convolve", None),
    ("ring", "adjoint", None),
    ("sections", "compress", lambda a, k, r: {"sections.compress.nnz": r.nnz}),
    ("sections", "certify_invertible", lambda a, k, r: {"sections.certified": int(r.certified)}),
    ("sections", "sigma_min_estimate", None),
    ("det", "logabsdet", lambda a, k, r: {
        "det.logabsdet.n": _matrix_order(_arg(a, k, 0, "M")),
        "det.logabsdet.defects": int(r == -math.inf),
    }),
    ("det", "fk_poly_trace", lambda a, k, r: {
        "det.fk_poly_trace.degree_sum": _arg(a, k, 2, "degree"),
    }),
    ("det", "snf", None),
    ("det", "det_exact", None),
    ("det", "build_perturbed_compression", None),
    ("det", "fk_finite_sections", None),
    ("det", "perturbation_study", None),
    ("mahler", "mahler_grid", lambda a, k, r: {
        "mahler.grid_points": _arg(a, k, 1, "N") ** _arg(a, k, 0, "f").descriptor.params[0],
    }),
    ("mahler", "circulant_logdet", None),
    ("mahler", "mahler_roots", None),
    ("dynamics", "solve_dual_finite", lambda a, k, r: {"dynamics.dual_solutions": r.count}),
    ("dynamics", "entropy_finite_group", None),
    ("dynamics", "extremal_count", lambda a, k, r: {
        "dynamics.extremal_points": _point_count(_arg(a, k, 0, "S")),
    }),
    ("dynamics", "quasitile", None),
    ("dynamics", "verify_tiling", None),
    ("dynamics", "count_lattice_ball", None),
    ("cli", "main", None),
)

# Layers that call other wrapped layers; they also report inclusive time.
DRIVERS = (
    "det.fk_finite_sections",
    "det.perturbation_study",
    "det.build_perturbed_compression",
    "det.fk_poly_trace",
    "mahler.circulant_logdet",
    "dynamics.solve_dual_finite",
    "dynamics.entropy_finite_group",
    "cli.main",
)

# Layers whose self time is split by the kind of symbol the check uses:
# the kind decides the factorization (Cholesky or LU, real or complex) and
# the polynomial-trace path (exact walk, f*f pairing, float recurrence).
KINDS = ("sa", "nsa", "cplx")
SPLIT_BY_KIND = ("det.logabsdet", "det.fk_poly_trace")

WORK_COUNTS = (
    "groups.window_elements",
    "sections.compress.nnz",
    "det.logabsdet.n",
    "det.logabsdet.defects",
    "det.fk_poly_trace.degree_sum",
    "mahler.grid_points",
    "dynamics.dual_solutions",
    "dynamics.extremal_points",
)

PASS_SPAN = "bench.pass"
CHECK_SPAN = "bench.check"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    check: str | None    # id of the check the span ran under
    ok: bool             # False when the call raised
    work: dict | None


def metric_units() -> dict[str, str]:
    """Every per-layer metric ``layer_metrics`` reports, with its unit."""
    units = {}
    for name in (f"{mod}.{fn}" for mod, fn, _ in LAYERS):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
        if name in DRIVERS:
            units[f"{name}.s"] = "s"
        if name in SPLIT_BY_KIND:
            for kind in KINDS:
                units[f"{name}.{kind}.self_s"] = "s"
    for name in WORK_COUNTS:
        units[name] = "count"
    units["sections.certified_frac"] = "frac"
    units["bench.harness.self_s"] = "s"
    return units


class Tracer:
    """Records a span for every call of a wrapped layer function."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.check: str | None = None
        self._open: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        defining = {mod: importlib.import_module(f"grdet.{mod}") for mod, _, _ in LAYERS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "grdet" or name.startswith("grdet."))]
        for mod, fn, work in LAYERS:
            original = getattr(defining[mod], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original, work)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name, fn, work):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, work, args, kwargs)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording ----------------------------------------------------------

    def _open_span(self) -> tuple[int, int]:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        return index, parent

    def _call(self, name, fn, work, args, kwargs):
        index, parent = self._open_span()
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._open.pop()
            counts = work(args, kwargs, result) if ok and work is not None else None
            self.spans[index] = Span(name, start, end, parent, self.check, ok, counts)

    @contextlib.contextmanager
    def span(self, name: str, check: str | None = None):
        """A harness span (a pass or a check) around the calls it makes."""
        index, parent = self._open_span()
        outer = self.check
        if check is not None:
            self.check = check
        ok = False
        start = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.check = outer
            self.spans[index] = Span(name, start, end, parent, check or outer, ok, None)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")


# ---------------------------------------------------------------------------
# derived metrics

def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def nesting_errors(spans) -> list[str]:
    """Spans that are unfinished or not inside their parent's interval."""
    bad = []
    for i, s in enumerate(spans):
        if s is None:
            bad.append(f"span {i} never closed")
        elif s.parent >= 0:
            p = spans[s.parent]
            if p is None or s.start < p.start or s.end > p.end:
                bad.append(f"span {i} ({s.name}) escapes its parent {s.parent}")
    return bad


def pass_roots(spans) -> list[int]:
    """Indices of the root spans, one per traced pass, in order."""
    return [i for i, s in enumerate(spans) if s.parent < 0 and s.name == PASS_SPAN]


def layer_metrics(spans, root: int, kinds: dict) -> dict:
    """Per-layer counts and times of the pass whose root span is ``root``.

    ``kinds`` maps a check id to the kind of symbol it uses; self times of
    the layers in SPLIT_BY_KIND are also summed per kind.
    """
    selfs = self_times(spans)
    top = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s.parent >= 0:
            top[i] = top[s.parent]
    values = {name: 0.0 for name in metric_units()}
    certified = 0
    for i, s in enumerate(spans):
        if top[i] != root:
            continue
        if s.name in (PASS_SPAN, CHECK_SPAN):
            values["bench.harness.self_s"] += selfs[i]
            continue
        values[f"{s.name}.calls"] += 1
        values[f"{s.name}.self_s"] += selfs[i]
        if not s.ok:
            values[f"{s.name}.errors"] += 1
        if s.name in DRIVERS:
            values[f"{s.name}.s"] += s.end - s.start
        if s.name in SPLIT_BY_KIND and kinds.get(s.check) in KINDS:
            values[f"{s.name}.{kinds[s.check]}.self_s"] += selfs[i]
        for key, amount in (s.work or {}).items():
            if key == "sections.certified":
                certified += amount
            else:
                values[key] += amount
    calls = values["sections.certify_invertible.calls"]
    values["sections.certified_frac"] = certified / calls if calls else 0.0
    for name, unit in metric_units().items():
        if unit == "count":
            values[name] = int(values[name])
    return values


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each time over passes; counts are those of the first pass."""
    out = {}
    for name, unit in metric_units().items():
        column = [m[name] for m in per_pass]
        out[name] = column[0] if unit == "count" else statistics.median(column)
    return out
