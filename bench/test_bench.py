"""Tests of the benchmark harness itself: python -m pytest bench"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import grdet
import grdet.cli
import grdet.det
import grdet.mahler
import grdet.sections

import child
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
# cheap checks that still reach every nesting the tests look at
CHEAP = ("lattice/z1-shift", "lattice/cli-z1-sa", "finite/chain-0", "finite/chain-7",
         "finite/ball-3", "finite/tiling-z1")


def cheap_checks(seed, tmp_path):
    checks = (workloads.build("lattice", seed, tmp_path / "inputs")
              + workloads.build("finite", seed, tmp_path / "inputs"))
    return [c for c in checks if c.id in CHEAP]


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = {(m, f): getattr(sys.modules[f"grdet.{m}"], f) for m, f, _ in tracing.LAYERS}
    aliases = [(grdet.det, "compress"), (grdet.mahler, "logabsdet"), (grdet, "fk_poly_trace"),
               (grdet.sections, "folner_window"), (grdet.cli, "main")]
    tracer = tracing.Tracer()
    with tracer.installed():
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "grdet"]:
            for value in vars(module).values():
                assert all(value is not fn for fn in originals.values())
        for module, attr in aliases:
            assert getattr(module, attr).__wrapped__ is not None
    for (m, f), fn in originals.items():
        assert getattr(sys.modules[f"grdet.{m}"], f) is fn
    for module, attr in aliases:
        assert not hasattr(getattr(module, attr), "__wrapped__")


def test_traced_pass_gives_identical_values_and_nested_spans(tmp_path):
    checks = cheap_checks(0, tmp_path)
    plain = child.run_pass(checks, workloads)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = child.run_pass(checks, workloads, tracer)
    assert plain["failures"] == traced["failures"] == {}
    assert plain["values"] == traced["values"]
    assert plain["digest"] == traced["digest"]

    spans = tracer.spans
    assert tracing.nesting_errors(spans) == []
    parent_of = {}
    for s in spans:
        if s.parent >= 0:
            parent_of.setdefault(s.name, set()).add(spans[s.parent].name)
    assert "det.fk_finite_sections" in parent_of["sections.compress"]
    assert "det.fk_finite_sections" in parent_of["det.logabsdet"]
    assert "mahler.circulant_logdet" in parent_of["det.logabsdet"]
    assert "cli.main" in parent_of["det.fk_finite_sections"]
    assert "dynamics.entropy_finite_group" in parent_of["dynamics.solve_dual_finite"]
    assert {s.check for s in spans if s.name == "sections.compress"} <= set(CHEAP)

    (root,) = tracing.pass_roots(spans)
    assert math.isclose(sum(tracing.self_times(spans)), spans[root].end - spans[root].start,
                        rel_tol=1e-9)
    layers = tracing.layer_metrics(spans, root, {c.id: c.kind for c in checks})
    assert layers["cli.main.calls"] == 3
    assert layers["det.fk_poly_trace.calls"] == 2
    assert layers["det.logabsdet.defects"] == 6   # four shift sections, two perturbed
    assert layers["sections.certified_frac"] == 1.0
    assert layers["det.logabsdet.nsa.self_s"] > 0 and layers["det.logabsdet.cplx.self_s"] == 0


def test_finite_checks_make_no_factorization_or_trace_calls(tmp_path):
    checks = [c for c in workloads.build("finite", 0, tmp_path) if "chain" in c.id or "ball" in c.id]
    tracer = tracing.Tracer()
    with tracer.installed():
        child.run_pass(checks, workloads, tracer)
    layers = tracing.layer_metrics(tracer.spans, tracing.pass_roots(tracer.spans)[0], {})
    for name in ("det.fk_poly_trace", "det.logabsdet", "mahler.mahler_grid",
                 "mahler.circulant_logdet", "mahler.mahler_roots"):
        assert layers[f"{name}.calls"] == 0
    assert layers["dynamics.entropy_finite_group.calls"] == 30


def test_same_seed_reproduces_values_and_counts(tmp_path):
    def traced(seed):
        tracer = tracing.Tracer()
        checks = cheap_checks(seed, tmp_path)
        with tracer.installed():
            result = child.run_pass(checks, workloads, tracer)
        root = tracing.pass_roots(tracer.spans)[0]
        layers = tracing.layer_metrics(tracer.spans, root, {c.id: c.kind for c in checks})
        counts = {k: v for k, v in layers.items() if tracing.metric_units()[k] == "count"}
        return result, counts

    first, counts = traced(5)
    again, counts_again = traced(5)
    other, _ = traced(6)
    assert first["values"] == again["values"]
    assert counts == counts_again
    assert other["failures"] == {}
    assert other["values"] != first["values"]


def test_seed_moves_finite_chains_without_changing_their_work(tmp_path):
    def chains(seed):
        checks = [c for c in workloads.build("finite", seed, tmp_path) if "chain" in c.id]
        return child.run_pass(checks, workloads)["values"]

    # |det|, quotient order, dual size and entropy are automorphism invariants
    assert chains(3) == chains(4)


def test_failing_and_raising_checks_are_counted_by_name():
    def wrong(g):
        g.close("one = two", 1.0, 2.0, 0.5)

    def raising(g):
        grdet.snf([])

    checks = [workloads.Check("t/wrong", "exact", wrong),
              workloads.Check("t/raising", "exact", raising),
              workloads.Check("t/fine", "exact", lambda g: g.equal("x", 1, 1))]
    result = child.run_pass(checks, workloads)
    assert set(result["failures"]) == {"t/wrong", "t/raising"}
    assert "DomainError" in result["failures"]["t/raising"][0]
    assert result["worst_ratio"]["t/wrong"] == 2.0


def test_self_times_subtract_direct_children_only():
    S = tracing.Span
    spans = [S("bench.pass", 0.0, 10.0, -1, None, True, None),
             S("bench.check", 1.0, 9.0, 0, "c", True, None),
             S("det.fk_finite_sections", 2.0, 8.0, 1, "c", True, None),
             S("sections.compress", 3.0, 5.0, 2, "c", True, {"sections.compress.nnz": 7}),
             S("det.logabsdet", 5.0, 7.5, 2, "c", False, None)]
    assert tracing.self_times(spans) == [2.0, 2.0, 1.5, 2.0, 2.5]
    layers = tracing.layer_metrics(spans, 0, {"c": "sa"})
    assert layers["det.fk_finite_sections.s"] == 6.0
    assert layers["det.fk_finite_sections.self_s"] == 1.5
    assert layers["det.logabsdet.sa.self_s"] == 2.5
    assert layers["det.logabsdet.errors"] == 1
    assert layers["sections.compress.nnz"] == 7
    assert layers["bench.harness.self_s"] == 4.0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run._per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_refuses_a_directory_without_grdet_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "finite", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.monotonic() - start < 120
