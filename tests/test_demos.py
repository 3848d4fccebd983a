"""Smoke test: the demo scripts run to completion; demo 04 keeps its bytes.

Demo 03 (H3 sections, about 11 s) is left out to keep the suite fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_yuzvinskii_three_ways.py",
    "02_finite_group_chain.py",
    "04_quasitiling_and_perturbation.py",
    "05_separated_sets_and_balls.py",
    "06_l1_growth_free_group.py",
)

DEMO_04_STDOUT = """\
window of 100, tiles of 7 and 3: coverage 0.980 with 14 placements

perturbed compression on 10 points: rank defect 4, denominator 33554432
  tile 0: transfer norm 1.000, inverse norm 1.000 (both must stay below 2)
  log|det S| = 6.396930
seed 1: perturbed value 0.946167 (oracle 0.962424, drift 0.0163)
seed 2: perturbed value 0.946246 (oracle 0.962424, drift 0.0162)
"""


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    run_demo(name)


def test_demo_04_keeps_its_output():
    # the perturbed compression's rank defect, denominator, transfer norms
    # and log|det S|, and the unit-column study
    assert run_demo("04_quasitiling_and_perturbation.py") == DEMO_04_STDOUT
