"""Smoke test: the demo scripts run to completion.

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


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
