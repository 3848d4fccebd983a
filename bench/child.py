"""One benchmark process: set up a workload, then time passes over its checks.

Started by run.py in a fresh interpreter.  Set-up is ``import grdet``, input
generation and a warm-up of every factorization backend; the process then
reports the CLOCK_MONOTONIC time at which set-up ended, so the parent can
measure set-up from the moment it started the interpreter.  With
``--setup-only`` it stops there.  Otherwise it runs whole passes over all
checks for ``--seconds`` seconds: a first, warm-up pass, then timed passes
for as long as another one fits, at least MIN_TIMED_PASSES of them.  Every
pass is checked; only the timed ones enter the timings.  With ``--trace 1``
the timed passes alternate between untraced and traced, so both halves see
the same host conditions.  The last line of its standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_TIMED_PASSES = 4   # with --trace 1: two untraced and two traced


def _import_grdet():
    sys.path.insert(0, str(ROOT / "src"))
    import grdet

    if not Path(grdet.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"grdet imported from {grdet.__file__}, not from {ROOT / 'src'}")
    return grdet


def warm_up(grdet) -> None:
    """Start the BLAS thread pool and load every backend and dtype once.

    Otherwise the first dense factorization of the process (and the first
    complex or SuperLU one) is charged to whichever check happens to run
    first.
    """
    import numpy as np
    import scipy.sparse as sp

    n = 256
    for dtype in (np.float64, np.complex128):
        A = (4 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)).astype(dtype)
        grdet.logabsdet(A)                                  # dense Cholesky
        grdet.logabsdet(A + np.eye(n, k=2))                 # dense LU
        grdet.logabsdet(sp.csc_matrix(A + np.eye(n, k=2)))  # SuperLU
        grdet.sigma_min_estimate(A)


def _blas_libraries() -> list[dict]:
    """Vendor configuration and thread count of every loaded OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
        out.append(entry)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def run_pass(checks, workloads, tracer=None, warmup=False) -> dict:
    clock = time.perf_counter
    results = []
    start = clock()
    if tracer is None:
        for check in checks:
            results.append(workloads.run_check(check, clock))
    else:
        with tracer.span("bench.pass"):
            for check in checks:
                with tracer.span("bench.check", check.id):
                    results.append(workloads.run_check(check, clock))
    wall = clock() - start
    values = {r.id: r.values for r in results}
    return {
        "warmup": warmup,
        "traced": tracer is not None,
        "wall_s": wall,
        "check_s": {r.id: r.seconds for r in results},
        "worst_ratio": {r.id: r.worst_ratio for r in results},
        "failures": {r.id: r.failures for r in results if not r.ok},
        "digest": _digest(values),
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    grdet = _import_grdet()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    checks = workloads.build(args.workload, args.seed, args.out / "inputs" / f"{args.workload}-{args.seed}")
    warm_up(grdet)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    begin = time.perf_counter()
    passes = [run_pass(checks, workloads, warmup=True)]
    while True:
        timed = [p["wall_s"] for p in passes if not p["warmup"]]
        elapsed = time.perf_counter() - begin
        if len(timed) >= MIN_TIMED_PASSES and elapsed + statistics.median(timed) > args.seconds:
            break
        gc.collect()   # outside the timings: each pass starts with a clean heap
        if tracer is not None and len(timed) % 2 == 1:
            with tracer.installed():
                passes.append(run_pass(checks, workloads, tracer))
        else:
            passes.append(run_pass(checks, workloads))

    result = {
        "ready": ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
        "kinds": {c.id: c.kind for c in checks},
        "passes": passes,
    }
    if tracer is not None:
        spans_path = args.out / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_jsonl(spans_path)
        kinds = result["kinds"]
        per_pass = [tracing.layer_metrics(tracer.spans, root, kinds)
                    for root in tracing.pass_roots(tracer.spans)]
        traced = [p["wall_s"] for p in passes if p["traced"]]
        untraced = [p["wall_s"] for p in passes if not (p["traced"] or p["warmup"])]
        selfs = tracing.self_times(tracer.spans)
        layers = tracing.median_metrics(per_pass)
        layers["trace.wall_s"] = statistics.median(traced)
        layers["trace.untraced_wall_s"] = statistics.median(untraced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["trace.accounted_frac"] = sum(selfs) / sum(traced)
        result["layers"] = layers
        result["count_mismatches"] = [
            name for name, unit in tracing.metric_units().items()
            if unit == "count" and len({m[name] for m in per_pass}) > 1
        ]
        result["nesting_errors"] = tracing.nesting_errors(tracer.spans)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
