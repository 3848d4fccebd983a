import json
import math

import pytest

from grdet import cli

F_GRE = "group Z^1\n3 0\n1 1\n1 -1\n"
H_GRE = "group H3\n5 0 0 0\n1 1 0 0\n1 -1 0 0\n1 0 1 0\n1 0 -1 0\n"
F3_GRE = "group Zmod:3\n2 0\n1 1\n"
# the warning fk_poly_trace raises when its interval misses the spectrum
POLY_MISS_WARNING = ("Chebyshev traces exceed 1 in magnitude; the interval probably does not "
                     "enclose the spectrum of f*f and the result is unreliable\n")


@pytest.fixture
def f_path(tmp_path):
    p = tmp_path / "f.gre"
    p.write_text(F_GRE)
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_examples(tmp_path):
    import grdet as G
    f = G.parse_gre(F_GRE)
    assert f == G.ring_element(G.integer_lattice(1), {(0,): 3, (1,): 1, (-1,): 1})
    h = G.parse_gre(H_GRE)
    assert h.descriptor == G.heisenberg3()
    assert G.l1_norm(h) == 9


def test_mahler_roots_cli(capsys, f_path):
    code, out, _ = run(capsys, ["mahler", "--method", "roots", "--f", f_path])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,value"
    assert lines[1] == "roots,0.962423650119"


def test_fkdet_sections_cli(capsys, f_path):
    argv = ["fkdet", "--method", "sections", "--f", f_path,
            "--schedule", "10,100,1000", "--certify", "positive-gap"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,window_size,boundary_ratio,value,method"
    assert len(lines) == 4
    last_value = float(lines[3].split(",")[3])
    assert abs(last_value - 0.9624236501) < 1e-2


# pinned stdout of the H3 sections table: its 12 significant digits must not
# move when the factorization changes backend or ordering
H_SECTIONS_3_4 = (
    "n,window_size,boundary_ratio,value,method\n"
    "3,931,0.726100966702,1.53424065531,sections\n"
    "4,2673,0.564160119716,1.52997852233,sections\n"
)


@pytest.mark.parametrize("method", ["l1-neumann", "positive-gap"])
def test_fkdet_sections_h3_golden(capsys, tmp_path, method):
    p = tmp_path / "h.gre"
    p.write_text(H_GRE)
    code, out, _ = run(capsys, ["fkdet", "--method", "sections", "--f", str(p),
                                "--schedule", "3,4", "--certify", method])
    assert code == 0
    assert out == H_SECTIONS_3_4


# pinned stdout of the torus evaluator's two users on a multi-term Z^2
# symbol; JSON prints the full float repr, so it pins the certificate bit
# for bit
Z2_GRE = "group Z^2\n7 0 0\n2 1 0\n-1 -1 1\n1 0 -2\n"
Z2_GOLDEN = {
    ("mahler", "--method", "grid", "--grid-n", "48"):
        "method,grid_n,value\ngrid,48,1.94732065134\n",
    ("certify", "--method", "torus-min"):
        "method,certified,sigma_min_lower,inverse_norm_upper,reason\n"
        "torus-min,1,3.99411269957,0.250368498642,\n",
    ("certify", "--method", "torus-min", "--format", "json"):
        '[{"method": "torus-min", "certified": 1, "sigma_min_lower": 3.994112699571175, '
        '"inverse_norm_upper": 0.25036849864235555, "reason": ""}]\n',
}


@pytest.mark.parametrize("argv", sorted(Z2_GOLDEN), ids=" ".join)
def test_torus_golden(capsys, tmp_path, argv):
    p = tmp_path / "z2.gre"
    p.write_text(Z2_GRE)
    code, out, _ = run(capsys, [*argv, "--f", str(p)])
    assert code == 0
    assert out == Z2_GOLDEN[argv]


def test_cli_determinism(capsys, f_path):
    argv = ["perturb", "--f", f_path, "--schedule", "5,30", "--delta", "0.05",
            "--seed", "7", "--certify", "positive-gap"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    argv2 = ["fkdet", "--method", "sections", "--f", f_path, "--schedule", "5,30"]
    _, out3, _ = run(capsys, argv2)
    _, out4, _ = run(capsys, argv2)
    assert out3 == out4


def test_fkdet_json(capsys, f_path):
    code, out, _ = run(capsys, ["fkdet", "--method", "poly", "--f", f_path,
                                "--interval", "1,25", "--degree", "40",
                                "--assume-invertible", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert abs(float(payload[0]["value"]) - 0.9624236501) < 1e-9
    assert float(payload[0]["error_bound"]) < 1e-6


def test_snf_cli(capsys, tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("2,0\n0,3\n")
    code, out, _ = run(capsys, ["snf", "--matrix", str(m)])
    assert code == 0
    assert out.strip().split("\n")[1] == "1 6,6"


def test_snf_cli_tall_matrix_has_an_infinite_quotient(capsys, tmp_path):
    # Z^3 / M Z^2 = Z for the rows 1 0 / 0 1 / 0 0
    m = tmp_path / "m.csv"
    m.write_text("1 0\n0 1\n0 0\n")
    code, out, _ = run(capsys, ["snf", "--matrix", str(m)])
    assert (code, out.strip().split("\n")[1]) == (0, "1 1,inf")


def test_entropy_finite_cli(capsys, tmp_path):
    p = tmp_path / "f3.gre"
    p.write_text(F3_GRE)
    code, out, _ = run(capsys, ["entropy-finite", "--f", str(p), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["quotient_order"] == 9
    assert payload[0]["solution_count"] == 9
    assert abs(float(payload[0]["entropy"]) - math.log(9) / 3) < 1e-12


def test_separated_cli(capsys, tmp_path):
    p = tmp_path / "f3.gre"
    p.write_text(F3_GRE)
    sol = tmp_path / "sols.csv"
    code, out, _ = run(capsys, ["separated", "--f", str(p), "--epsilon", "1/24",
                                "--p", "inf", "--solutions-csv", str(sol)])
    assert code == 0
    assert out.strip().split("\n")[1].endswith("9,9,9")
    assert len(sol.read_text().strip().split("\n")) == 10  # header + 9 rows


def test_l1growth_cli(capsys):
    code, out, _ = run(capsys, ["l1growth", "--k", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,l1_norm,support_size"
    for k, line in enumerate(lines[1:]):
        assert line == f"{k},{3**k},{3**k}"


def test_quasitile_cli(capsys):
    import grdet as G
    code, out, err = run(capsys, ["quasitile", "--group", "Z^1", "--n", "20",
                                  "--tiles", "2", "--epsilon", "0.1"])
    assert code == 0
    Z1 = G.integer_lattice(1)
    t = G.quasitile(G.folner_window(Z1, 20), [G.folner_window(Z1, 2)], 0.1)
    assert out == "tile_index,center_coordinates\n" + "".join(
        f"{ti},{c.coords[0]}\n" for ti, c in t.placements)
    assert out.split("\n")[1] == "0,-18"
    assert err == f"coverage {float(t.coverage):.12g}\n"


def test_certify_cli_exit_codes(capsys, f_path, tmp_path):
    code, out, _ = run(capsys, ["certify", "--f", f_path, "--method", "torus-min"])
    assert code == 0
    bad = tmp_path / "bad.gre"
    bad.write_text("group Z^1\n1 0\n2 1\n")  # 1 + 2u: no dominant scalar part
    code2, out2, _ = run(capsys, ["certify", "--f", str(bad), "--method", "l1-neumann"])
    assert code2 == 3


def test_not_certifiable_gate(capsys, tmp_path):
    bad = tmp_path / "bad.gre"
    bad.write_text("group H3\n1 0 0 0\n2 1 0 0\n")
    code, _, err = run(capsys, ["fkdet", "--method", "sections", "--f", str(bad),
                                "--schedule", "1,2"])
    assert code == 3
    assert "not certifiable" in err


def test_malformed_inputs_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.gre"
    bad.write_text("group Z^1\noops 0\n")
    code, _, err = run(capsys, ["mahler", "--method", "roots", "--f", str(bad)])
    assert code == 2
    assert "line 2" in err

    missing = tmp_path / "nope.gre"
    code2, _, _ = run(capsys, ["mahler", "--method", "roots", "--f", str(missing)])
    assert code2 == 2

    p = tmp_path / "f.gre"
    p.write_text(F_GRE)
    code3, _, err3 = run(capsys, ["mahler", "--method", "roots", "--f", str(p),
                                  "--group", "Z^2"])
    assert code3 == 2
    assert "does not match" in err3


def test_json_output(capsys, f_path):
    code, out, _ = run(capsys, ["mahler", "--method", "roots", "--f", f_path,
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["method"] == "roots"
    assert abs(float(payload[0]["value"]) - 0.962423650119) < 1e-11


# ---------------------------------------------------------------------- against the library

def test_fkdet_poly_with_certificate_interval(capsys, f_path):
    import grdet as G
    from grdet import det
    code, out, _ = run(capsys, ["fkdet", "--method", "poly", "--f", f_path, "--degree", "30",
                                "--certify", "positive-gap", "--format", "json"])
    assert code == 0
    f = G.parse_gre(F_GRE)
    a, b = det.poly_trace_interval(G.certify_invertible(f, "positive-gap"), f)
    value, bound = det.fk_poly_trace(f, (a, b), 30)
    assert json.loads(out) == [{"method": "poly", "interval_low": a, "interval_high": b,
                                "degree": 30, "value": value, "error_bound": bound}]


def test_fkdet_poly_bound_is_inf_when_the_interval_misses_the_spectrum(capsys, f_path):
    code, out, err = run(capsys, ["fkdet", "--method", "poly", "--f", f_path,
                                  "--interval", "3,25", "--degree", "4", "--assume-invertible"])
    assert code == 0
    assert out.strip().split("\n")[1].endswith(",inf")
    assert err == POLY_MISS_WARNING


def test_fkdet_poly_warning_is_one_line_outside_pytest(f_path):
    # pytest records warnings itself; a plain interpreter shows the printer in use
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "grdet.cli", "fkdet", "--method", "poly", "--f", f_path,
         "--interval", "3,25", "--degree", "4", "--assume-invertible"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == POLY_MISS_WARNING


def test_entropy_finite_writes_the_dual_solutions(capsys, tmp_path):
    import grdet as G
    p, sol = tmp_path / "f3.gre", tmp_path / "sols.csv"
    p.write_text(F3_GRE)
    code, _, _ = run(capsys, ["entropy-finite", "--f", str(p), "--solutions-csv", str(sol)])
    assert code == 0
    f = G.parse_gre(F3_GRE)
    assert sol.read_text() == G.solve_dual_finite(f, f.descriptor).to_csv()


@pytest.mark.parametrize("p_arg, p", [("inf", math.inf), ("1", 1), ("2", 2)])
def test_separated_spanning_mode(capsys, tmp_path, p_arg, p):
    import grdet as G
    from fractions import Fraction
    path = tmp_path / "f3.gre"
    path.write_text(F3_GRE)
    code, out, _ = run(capsys, ["separated", "--f", str(path), "--epsilon", "1/5",
                                "--p", p_arg, "--mode", "spanning", "--format", "json"])
    assert code == 0
    f = G.parse_gre(F3_GRE)
    dual = G.solve_dual_finite(f, f.descriptor)
    count = G.extremal_count(dual, dual.window, p, Fraction(1, 5), "spanning")
    assert json.loads(out) == [{"mode": "spanning", "p": p_arg, "epsilon": "1/5",
                                "solutions": dual.count, "count": count}]


def test_snf_skips_comments_and_blank_lines_and_names_bad_ones(capsys, tmp_path):
    import grdet as G
    m = tmp_path / "m.txt"
    m.write_text("# a 3 x 3 matrix\n\n2, 4 4\n  \n-6 6 12\n10 -4 -16\n")
    code, out, _ = run(capsys, ["snf", "--matrix", str(m), "--format", "json"])
    assert code == 0
    res = G.snf([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], transforms=False)
    assert json.loads(out) == [{"divisors": " ".join(map(str, res.divisors)),
                                "order": G.quotient_order(res)}]
    m.write_text("# comment\n1 2\n3 x\n")
    code, out, err = run(capsys, ["snf", "--matrix", str(m)])
    assert (code, out) == (2, "")
    assert "matrix line 3" in err


@pytest.mark.parametrize("command", [["fkdet", "--method", "sections"],
                                     ["perturb", "--delta", "0.05"]])
def test_schedule_stage_below_one_exits_2(capsys, f_path, command):
    code, out, err = run(capsys, command + ["--f", f_path, "--schedule", "2,0",
                                            "--assume-invertible"])
    assert (code, out) == (2, "")
    assert "schedule must be" in err


# ---------------------------------------------------------------------- strict JSON, flag errors

def _strict(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_json_writes_non_finite_cells_as_strings(capsys, f_path, tmp_path):
    u = tmp_path / "u.gre"
    u.write_text("group Z^1\n1 1\n")
    code, out, _ = run(capsys, ["fkdet", "--method", "sections", "--f", str(u),
                                "--schedule", "2", "--assume-invertible", "--format", "json"])
    assert code == 0
    assert _strict(out) == [{"n": 2, "window_size": 5, "boundary_ratio": 0.4,
                             "value": "-inf", "method": "sections"}]
    code, out, err = run(capsys, ["fkdet", "--method", "poly", "--f", f_path, "--interval", "3,25",
                                  "--degree", "4", "--assume-invertible", "--format", "json"])
    assert (code, err) == (0, POLY_MISS_WARNING)
    (row,) = _strict(out)
    assert row["error_bound"] == "inf" and math.isfinite(row["value"])


@pytest.mark.parametrize("argv", [
    ["fkdet", "--method", "poly", "--interval", "1", "--assume-invertible"],
    ["fkdet", "--method", "poly", "--interval", "a,b", "--assume-invertible"],
    ["fkdet", "--method", "poly", "--interval", "1,inf", "--assume-invertible"],
    ["fkdet", "--method", "sections", "--schedule", "2,x", "--assume-invertible"],
    ["quasitile", "--group", "Z^1", "--n", "20", "--tiles", "2,"],
    ["separated", "--epsilon", "abc"],
    ["separated", "--epsilon", "1/0"],
    ["separated", "--epsilon", "nan"],
], ids=" ".join)
def test_malformed_numeric_flags_exit_2(capsys, tmp_path, argv):
    p = tmp_path / "f.gre"
    p.write_text(F3_GRE if argv[0] == "separated" else F_GRE)
    flag = next(a for a in argv if a in ("--interval", "--schedule", "--tiles", "--epsilon"))
    code, out, err = run(capsys, argv + ([] if argv[0] == "quasitile" else ["--f", str(p)]))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed {flag} value ") and err.count("\n") == 1


# ---------------------------------------------------------------------- more against the library

def test_separated_default_epsilon(capsys, tmp_path):
    import grdet as G
    from fractions import Fraction
    from grdet.dynamics import separated_count_with_greedy
    p = tmp_path / "f3.gre"
    p.write_text(F3_GRE)
    code, out, _ = run(capsys, ["separated", "--f", str(p), "--p", "1", "--format", "json"])
    assert code == 0
    f = G.parse_gre(F3_GRE)
    dual = G.solve_dual_finite(f, f.descriptor)
    eps = Fraction(1, 8 * int(G.l1_norm(f)))
    count, greedy = separated_count_with_greedy(dual, dual.window, 1, eps)
    assert _strict(out) == [{"mode": "separated", "p": "1", "epsilon": str(eps),
                             "solutions": dual.count, "count": count,
                             "greedy_lower_bound": greedy}]


def test_quasitile_json(capsys):
    import grdet as G
    code, out, err = run(capsys, ["quasitile", "--group", "Z^2", "--n", "4", "--tiles", "2,1",
                                  "--epsilon", "0.1", "--format", "json"])
    assert code == 0
    Z2 = G.integer_lattice(2)
    t = G.quasitile(G.folner_window(Z2, 4), [G.folner_window(Z2, 2), G.folner_window(Z2, 1)], 0.1)
    assert _strict(out) == [{"tile_index": ti, "center_coordinates": " ".join(map(str, c.coords))}
                            for ti, c in t.placements]
    assert err == f"coverage {float(t.coverage):.12g}\n"


def test_mahler_grid_through_a_torus_zero_warns_on_one_line(capsys, tmp_path):
    import warnings
    import grdet as G
    p = tmp_path / "g.gre"
    p.write_text("group Z^1\n1 0\n-1 1\n")
    code, out, err = run(capsys, ["mahler", "--method", "grid", "--f", str(p), "--grid-n", "64"])
    assert code == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = G.mahler_grid(G.parse_gre(p.read_text()), 64)
    (w,) = caught
    assert err == f"{w.message}\n"
    assert out == f"method,grid_n,value\ngrid,64,{value:.12g}\n"


@pytest.mark.parametrize("text, method", [("group Z^1\n1 0\n-1 1\n", "torus-min"),
                                          ("group Z^1\n1 0\n1 1\n1 -1\n", "positive-gap")])
def test_certify_not_certifiable_exits_3_with_reason(capsys, tmp_path, text, method):
    import grdet as G
    p = tmp_path / "g.gre"
    p.write_text(text)
    code, out, _ = run(capsys, ["certify", "--f", str(p), "--method", method, "--format", "json"])
    cert = G.certify_invertible(G.parse_gre(text), method)
    assert code == 3 and not cert.certified and cert.reason
    (row,) = _strict(out)
    assert (row["method"], row["certified"], row["reason"]) == (method, 0, cert.reason)


def test_fkdet_poly_assumed_without_interval_exits_2(capsys, f_path):
    code, out, err = run(capsys, ["fkdet", "--method", "poly", "--f", f_path, "--assume-invertible"])
    assert (code, out) == (2, "")
    assert err == "error: --method poly needs --interval or a certificate\n"


# groups above 32 points (see tests/test_dynamics.py)
ABOVE_32 = [("group Zmod:40\n1 4\n1 23\n1 25\n", 3), ("group Zmod:33\n1 1\n", 1),
            ("group Zmod:70\n1 1\n", 1), ("group Zmod:2x20\n1 1 5\n1 1 7\n1 1 16\n", 9)]


@pytest.mark.parametrize("text, count", ABOVE_32, ids=[t.split("\n")[0] for t, _ in ABOVE_32])
def test_finite_subcommands_above_32_points(capsys, tmp_path, text, count):
    import grdet as G
    p, sol = tmp_path / "g.gre", tmp_path / "sols.csv"
    p.write_text(text)
    f = G.parse_gre(text)
    n = f.descriptor.order()
    code, out, _ = run(capsys, ["entropy-finite", "--f", str(p), "--solutions-csv", str(sol)])
    assert code == 0
    assert out.split("\n")[1] == f"{n},{count},{count},{count},{math.log(count) / n:.12g}"
    assert sol.read_text() == G.solve_dual_finite(f, f.descriptor).to_csv()
    code, out, _ = run(capsys, ["separated", "--f", str(p)])
    assert code == 0
    assert out.split("\n")[1].split(",")[3:] == [str(count)] * 3


@pytest.mark.parametrize("mode", ["separated", "spanning"])
@pytest.mark.parametrize("eps", ["-1", "0", "-1/5", "0/3", "0.0"])
def test_separated_nonpositive_epsilon_exits_2(capsys, tmp_path, mode, eps):
    p = tmp_path / "f3.gre"
    p.write_text(F3_GRE)
    code, out, err = run(capsys, ["separated", "--f", str(p), f"--epsilon={eps}", "--mode", mode])
    assert (code, out, err) == (2, "", "error: eps must be positive\n")


def test_l1growth_negative_k_exits_2(capsys):
    code, out, err = run(capsys, ["l1growth", "--k", "-1"])
    assert (code, out, err) == (2, "", "error: --k must be a nonnegative integer\n")


@pytest.mark.parametrize("command", [["fkdet", "--method", "sections"],
                                     ["perturb", "--delta", "0.05"]])
def test_automatic_certificate_uses_grid_n(capsys, tmp_path, command):
    # 2 + 2u - u^2: neither positive-gap nor l1-neumann certifies it, and
    # torus-min needs a grid finer than 2 points
    p = tmp_path / "q.gre"
    p.write_text("group Z^1\n2 0\n2 1\n-1 2\n")
    argv = command + ["--f", str(p), "--schedule", "4"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.startswith("n,window_size")
    for certify in ([], ["--certify", "torus-min"]):
        code, out, err = run(capsys, argv + ["--grid-n", "2"] + certify)
        assert (code, out) == (3, "")
        assert err == "not certifiable: grid minimum minus Lipschitz slack is not positive\n"


# 6 + x - x^-1 + y - y^-1 + xy over (Z/12)^2: |det| has 384 bits
FAMILY12_GRE = "group Zmod:12x12\n6 0 0\n1 1 0\n-1 11 0\n1 0 1\n-1 0 11\n1 1 1\n"
FAMILY12_ORDER = ("389701243145408451071190769815446192491204228683561687566156227608722741"
                  "25869501636458755247911750049949603628515625")
FAMILY12_DIVISORS = " ".join(
    ["1"] * 129 + ["7", "7", "7", "21", "21", "273", "273", "1365", "50505", "50505", "50505",
                   "1286343713655", "9004405995585", "1784429325882940361569859379465",
                   "951100830695607212716735049254845"])


def test_finite_subcommands_keep_their_bytes_on_a_large_determinant(capsys, tmp_path):
    import grdet as G
    p, m = tmp_path / "f.gre", tmp_path / "m.csv"
    p.write_text(FAMILY12_GRE)
    f = G.parse_gre(FAMILY12_GRE)
    M = G.compress(f, G.folner_window(f.descriptor, 1)).to_int_rows()
    m.write_text("".join(",".join(map(str, row)) + "\n" for row in M))
    code, out, err = run(capsys, ["entropy-finite", "--f", str(p)])
    assert (code, err) == (0, "")
    assert out == ("group_order,quotient_order,abs_det,solution_count,entropy\n"
                   f"144,{FAMILY12_ORDER},{FAMILY12_ORDER},skipped,1.84831594382\n")
    code, out, err = run(capsys, ["snf", "--matrix", str(m)])
    assert (code, err) == (0, "")
    assert out == f"divisors,order\n{FAMILY12_DIVISORS},{FAMILY12_ORDER}\n"
