"""grdet benchmark: cross-checked route families, end to end and per layer.

    python3 bench/run.py --workload lattice --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout and imports grdet from ``src/``.
For one workload it starts a fresh interpreter three times to measure
set-up; the last one goes on to the timed passes (one closed-loop caller, no
extra threads, the BLAS default thread count).  Every check is verified
against an independent route.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps grdet's layer functions from outside and
reports the per-layer metrics, including the tracing overhead.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
the environment, goes to ``bench/out/``.  ``--workload all`` runs every
workload in turn and ends with one combined object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("lattice", "heisenberg", "finite")
DEFAULT_SECONDS = 35
SETUP_SAMPLES = 3        # fresh interpreters per run; setup_s is their median
RUN_LIMIT_S = 170        # every child is killed past this point of the run

END_TO_END = {"wall_q3_s": "s", "check_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def upper_quartile(values) -> float:
    """Q3 of one run's timed pass times, or of one check's times.

    On a shared host a pass runs either contended or, now and then, alone,
    and the two differ by up to 1.7x.  Contended passes are the common case,
    so their level (the upper quartile) is steadier from run to run than the
    median, which flips between the two.
    """
    return statistics.quantiles(values, n=4)[2]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run one child; return its JSON record and its set-up time."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"benchmark child timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited {proc.returncode}: {' '.join(cmd)}")
    record = json.loads(out.strip().splitlines()[-1])
    return record, record["ready"] - started


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [_spawn(args, deadline, setup_only=True)[1] for _ in range(SETUP_SAMPLES - 1)]
    record, setup = _spawn(args, deadline, setup_only=False)
    setups.append(setup)

    passes = record["passes"]
    timed = [p for p in passes if not (p["traced"] or p["warmup"])]
    failures = {}
    for p in passes:
        for check_id, why in p["failures"].items():
            failures.setdefault(check_id, why)
    attempted = sum(len(p["check_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    worst = max(max(p["worst_ratio"].values()) for p in passes)
    problems = []
    if len({p["digest"] for p in passes}) > 1:
        problems.append("check values differ between passes")
    if args.trace:
        problems += record["nesting_errors"]
        problems += [f"count differs between passes: {n}" for n in record["count_mismatches"]]
    correct = failed == 0 and not problems

    end_to_end = {
        "wall_q3_s": upper_quartile([p["wall_s"] for p in timed]),
        "check_p50_s": statistics.median(upper_quartile([p["check_s"][c] for p in timed])
                                         for c in timed[0]["check_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    if args.trace:
        layers = {**record["layers"], "bench.failed_frac": failed / attempted,
                  "bench.worst_gap_ratio": worst}
        metrics = {name: _metric(layers[name], unit) for name, unit in _per_layer_units().items()}
    else:
        metrics = {name: _metric(end_to_end[name], unit) for name, unit in END_TO_END.items()}

    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    full = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "environment": record["environment"],
        "end_to_end": end_to_end,
        "failed_frac": failed / attempted,
        "worst_gap_ratio": worst,
        "setup_samples_s": setups,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "pass_warmup": [p["warmup"] for p in passes],
        "pass_check_s": [p["check_s"] for p in passes],
        "failures": failures,
        "problems": problems,
        "values_digest": passes[0]["digest"],
        "values": passes[0]["values"],
        "spans_file": record.get("spans_file"),
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1, default=str) + "\n", encoding="utf-8")
    for check_id, why in failures.items():
        print(f"FAILED {check_id}: {'; '.join(why)}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(f"{args.workload}: worst_gap_ratio {worst:.3g}, failed_frac {failed / attempted:.3g}, "
          f"record {path.relative_to(ROOT)}", file=sys.stderr)
    return summary


def _per_layer_units() -> dict:
    sys.path.insert(0, str(HERE))
    import tracing

    units = dict(tracing.metric_units())
    units.update({
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.accounted_frac": "frac",
        "bench.failed_frac": "frac",
        "bench.worst_gap_ratio": "ratio",
    })
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "grdet" / "__init__.py").is_file():
        print(f"error: no grdet sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            summary = run_workload(args)
        else:
            results = {}
            for workload in WORKLOADS:
                results[workload] = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
                print(json.dumps(results[workload]))
            summary = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
